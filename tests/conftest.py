import numpy as np
import pytest

from eegalign import kernels
from eegalign.bundle import write_tensor


@pytest.fixture(autouse=True, scope="session")
def kernel_cache(tmp_path_factory):
    """Build the compiled kernels into a cache of this test session's own, not the user's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture()
def numpy_fallback(monkeypatch):
    """Run the test with the compiled kernels unloaded, on the numpy code whose bits they must give."""
    monkeypatch.setattr(kernels, "_loaded", [None])


@pytest.fixture(params=["compiled", "numpy"])
def kernel_path(request):
    """Run the test once on the compiled kernels and once on the numpy fallback."""
    if request.param == "numpy":
        request.getfixturevalue("numpy_fallback")
    elif kernels.compiled() is None:
        pytest.skip("the compiled kernels did not load")
    return request.param


class _Spy:
    """Loaded kernels, with the name of each one looked up recorded in ``calls``."""

    def __init__(self, lib):
        self.lib, self.calls = lib, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.lib, name)


@pytest.fixture()
def install_spy(monkeypatch):
    """``install(lib)`` loads the kernels ``lib`` behind a ``_Spy``, as ``kernels.compiled()`` returns them, and
    returns the spy."""

    def install(lib):
        spy = _Spy(lib)
        monkeypatch.setattr(kernels, "_loaded", [spy])
        return spy

    return install


@pytest.fixture()
def kernels_spy(install_spy):
    """The compiled kernels behind a ``_Spy``; skipped if they did not load."""
    if kernels.compiled() is None:
        pytest.skip("the compiled kernels did not load")
    return install_spy(kernels.compiled())


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Echo one PASS/FAIL line per acceptance criterion to the terminal."""
    outcome = yield
    report = outcome.get_result()
    line = getattr(item, "acceptance_line", None)
    if line and report.when == "call":
        writer = item.config.pluginmanager.get_plugin("terminalreporter")
        if writer is not None:
            status = "PASS" if report.passed else "FAIL"
            writer.write_line(f"[{status}] {line}")


@pytest.fixture()
def fail_write_tensor(monkeypatch):
    """Install, in a module, a write_tensor that raises partway through the payload.

    ``install(module, calls)`` lets ``calls`` tensors through whole; the
    next one writes 16 payload bytes and raises OSError("disk full").
    """

    def install(module, calls: int) -> None:
        done = []

        def write(fh, array):
            if len(done) == calls:
                fh.write(np.asarray(array, dtype="<f8").tobytes()[:16])
                raise OSError("disk full")
            done.append(array)
            write_tensor(fh, array)

        monkeypatch.setattr(module, "write_tensor", write)

    return install
