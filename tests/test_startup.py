"""Start-up: which SciPy modules a fresh process loads, and when; and the
threads of a table build.

`import stablerd` loads no SciPy module: special functions come from `math`
and closed forms.  `scipy.optimize` and `scipy.integrate` are imported by
the functions that use them, and `scipy.interpolate` by none (the density
tables are splines of the library's own), so each check runs in a new
interpreter, where `sys.modules` shows exactly what the calls before it
loaded.  A table build spreads its blocks over a thread pool of its own;
the checks of those threads run in a new interpreter too, under a timeout,
so that a deadlock fails instead of hanging.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import stablerd

SRC = os.path.dirname(os.path.dirname(os.path.abspath(stablerd.__file__)))
HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.interpolate")


def _run_fresh(body, timeout=240):
    """Run `body` in a new interpreter that imports stablerd from SRC and
    return its standard output; a failing assertion fails the test."""
    script = "import sys\nsys.path.insert(0, %r)\n" % SRC + textwrap.dedent(body)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout


def _loaded_after(body):
    """The subset of HEAVY loaded once `body` has run in a fresh process."""
    tail = "\nprint(' '.join(m for m in %r if m in sys.modules))\n" % (HEAVY,)
    out = _run_fresh(textwrap.dedent(body) + tail)
    return set(out.split())


def _scipy_after(body):
    """Every module named scipy or scipy.* loaded once `body` has run in a
    fresh process."""
    tail = ("\nprint(' '.join(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))\n")
    return set(_run_fresh(textwrap.dedent(body) + tail).split())


def test_import_loads_none_of_the_heavy_submodules():
    assert _loaded_after("import stablerd, stablerd.cli") == set()


def test_import_loads_no_scipy():
    assert _scipy_after("import stablerd, stablerd.cli") == set()


@pytest.mark.parametrize("argv", [
    ["reproduce", "fig1", "--outdir", "{out}"],
    ["strength", "--source", "stable", "--alpha", "0.65", "--output", "{out}/s.csv"],
    ["strength", "--uniform", "--alpha", "0.6", "--output", "{out}/u.csv"],
], ids=["fig1", "stable-strength", "uniform-strength"])
def test_tables_cold_commands_load_no_scipy(argv, tmp_path):
    # the commands of the tables-cold benchmark workload, each on a cold process
    argv = [a.format(out=tmp_path) for a in argv]
    assert _scipy_after("""
        from stablerd import cli
        assert cli.main(%r) == 0
    """ % (argv,)) == set()


def test_aliasing_path_loads_no_scipy():
    # the aliasing count inverts ln Q(1/alpha, y) on the strength solver
    assert _scipy_after("""
        from stablerd import strength
        from stablerd.quantizer import UniformSpec, uniform_error_strength
        from stablerd.stable_core import StableParams
        source = strength.SymmetricStableSource(StableParams(1.5, 0.0, 1.0, 0.0))
        assert strength._aliasing_terms(0.01, source) > 0
        assert uniform_error_strength(UniformSpec(0.01), source, 1.5).value > 0.0
    """) == set()


def test_closed_form_alphas_load_no_table_or_quadrature():
    # the design workload's set-up and the strengths of U at alpha 1 and 2
    loaded = _loaded_after("""
        from stablerd import quantizer, strength
        q = quantizer.Quantizer.from_points([-0.6, 0.6], symmetric=True)
        quantizer.error_strength(q, strength.cauchy_source(1.0), 1.0)
        strength.strength_of_uniform(1.0)
        strength.strength_of_uniform(2.0)
    """)
    assert "scipy.interpolate" not in loaded and "scipy.integrate" not in loaded


def test_kkt_width_loads_no_heavy_submodule():
    assert _loaded_after("""
        from stablerd import quantizer
        quantizer.kkt_width_solution(1.0)
    """) == set()


def test_abs_quantile_loads_no_heavy_submodule():
    # the quantile runs the strength solver's Newton on the Cauchy mass, so
    # no SciPy root finder loads
    assert _loaded_after("""
        from stablerd import strength
        strength.cauchy_source(1.0).abs_quantile(0.25)
    """) == set()


def test_symmetric_density_loads_no_quadpack():
    # a stronger form of TestTableBuild.test_no_quadpack_call
    loaded = _loaded_after("""
        import numpy as np
        from stablerd.stable_core import StableParams, _StandardDensity, pdf
        for alpha in (0.3, 1.35):
            eng = _StandardDensity(alpha)
            eng.log_pdf_vec(np.array([0.5, 3.0]))
            for x in (1e-3, 0.7, 12.0, 45.0):
                assert eng.pdf(x) > 0.0
        assert pdf(StableParams(0.8, 0.0, 2.0, 0.5), 3.0) > 0.0
    """)
    assert "scipy.interpolate" not in loaded and "scipy.integrate" not in loaded


def test_generic_alpha_strength_loads_no_heavy_submodule():
    # the alpha 0.65 table, reference entropy and strength solve run on the
    # library's own spline, panels and Newton
    assert _loaded_after("""
        from stablerd import strength
        from stablerd.stable_core import StableParams
        source = strength.SymmetricStableSource(StableParams(0.65, 0.0, 1.0, 0.0))
        assert strength.solve_strength(source, 0.65).value > 0.0
    """) == set()


def test_d2_entropy_and_d3_strength_load_no_quadpack():
    # the d >= 2 tables are built from the 1-D table, with no Hankel
    # quadrature
    loaded = _loaded_after("""
        from stablerd import strength
        from stablerd.stable_core import ReferenceLaw, StableParams, reference_entropy, sample
        assert abs(reference_entropy(ReferenceLaw(0.8, 2)) - 5.8962839) < 1e-7
        batch = sample(StableParams(1.5, 0.0, 1.0, 0.0), 50, seed=0, d=3)
        assert strength.solve_strength(strength.EmpiricalSource(batch), 1.5).value > 0.0
    """)
    assert loaded == set()


def test_import_starts_no_thread_and_loads_no_pool():
    out = _run_fresh("""
        import threading
        import stablerd, stablerd.cli
        print(threading.active_count())
        print(sorted(m for m in sys.modules if m == "concurrent" or m.startswith("concurrent.")))
    """, timeout=60)
    assert out.split("\n")[:2] == ["1", "[]"]


def test_build_threads_end_with_the_build():
    # a build starts no thread and loads no pool
    out = _run_fresh("""
        import threading
        import numpy as np
        from stablerd.stable_core import standard_density
        assert np.all(np.isfinite(standard_density(0.65).log_pdf_vec(np.array([0.5, 5.0]))))
        print(threading.active_count())
        print(sorted(m for m in sys.modules if m == "concurrent" or m.startswith("concurrent.")))
    """, timeout=60)
    assert out.split("\n")[:2] == ["1", "[]"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_a_table():
    # the parent builds a table before the fork and the child another (it
    # dies in 60 s if it hangs)
    out = _run_fresh("""
        import os, signal, threading
        import numpy as np
        from stablerd.stable_core import standard_density
        standard_density(0.65).log_pdf_vec(np.array([0.5]))
        assert threading.active_count() == 1
        pid = os.fork()
        if pid == 0:
            signal.alarm(60)
            ok = np.all(np.isfinite(standard_density(1.35).log_pdf_vec(np.array([0.5, 5.0]))))
            os._exit(0 if ok else 1)
        print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    """, timeout=120)
    assert out.split() == ["0"]


def test_concurrent_builds_match_serial_builds():
    # two user threads build two tables at once, each on its own thread
    out = _run_fresh("""
        import threading
        import numpy as np
        from stablerd.stable_core import _StandardDensity, standard_density

        alphas = (0.65, 1.35)
        u = np.geomspace(1e-16, 1e3, 400)
        barrier = threading.Barrier(2, timeout=60)
        results = {}

        def work(a):
            barrier.wait()
            results[a] = standard_density(a).log_pdf_vec(u)

        threads = [threading.Thread(target=work, args=(a,)) for a in alphas]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90)
        assert not any(t.is_alive() for t in threads)
        assert threading.active_count() == 1
        for a in alphas:
            serial = _StandardDensity(a)
            assert serial.log_pdf_vec(u).tobytes() == results[a].tobytes(), a
            for name in ("x", "c", "_rows"):
                want = getattr(serial._spline, name).tobytes()
                assert getattr(standard_density(a)._spline, name).tobytes() == want, (a, name)
        print("ok")
    """, timeout=180)
    assert out.split() == ["ok"]


def test_cold_d3_build_finishes():
    # the d = 3 build runs the d = 2 build inside it, which runs the d = 1
    # build, each under its own engine's lock
    out = _run_fresh("""
        import threading
        import numpy as np
        from stablerd.stable_core import standard_density
        lp = standard_density(1.5, 3).log_pdf_vec(np.geomspace(1e-3, 1e2, 50))
        assert np.all(np.isfinite(lp)) and np.all(np.diff(lp) < 0.0)
        print(threading.active_count())
    """, timeout=120)
    assert out.split() == ["1"]


def test_concurrent_first_table_use():
    # two threads make the process's first table call at once, so the first
    # table build runs under the engine lock: one build, and answers bitwise
    # equal to each other and to a serial build.  At d = 2 the build of the
    # d = 2 table runs the d = 1 one inside it, once.
    for d, want in ((1, [(0.77, 1)]), (2, [(0.77, 2), (0.77, 1)])):
        out = _run_fresh(_CONCURRENT % (d, want, d))
        assert out.split() == ["ok"]


_CONCURRENT = """
        import threading
        import numpy as np
        from stablerd.stable_core import _StandardDensity, standard_density

        assert "scipy.interpolate" not in sys.modules
        builds = []
        real = _StandardDensity._build_table

        def counted(self):
            builds.append((self.alpha, self.d))
            return real(self)

        _StandardDensity._build_table = counted
        eng = standard_density(0.77, %d)
        u = np.geomspace(1e-16, 1e3, 400)
        barrier = threading.Barrier(2, timeout=60)
        results = [None] * 2

        def work(i):
            barrier.wait()
            results[i] = eng.log_pdf_vec(u)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            _StandardDensity._build_table = real
        assert not any(t.is_alive() for t in threads)
        assert builds == %r, builds
        assert results[0] is not None and results[1] is not None
        assert results[0].tobytes() == results[1].tobytes()

        serial = _StandardDensity(0.77, %d)
        assert serial.log_pdf_vec(u).tobytes() == results[0].tobytes()
        for name in ("x", "c", "_rows"):
            want = getattr(serial._spline, name).tobytes()
            assert getattr(eng._spline, name).tobytes() == want, name
        assert "scipy.interpolate" not in sys.modules
        print("ok")
"""
