"""Campaign integration of the compiled kernel: the ``kernel=``
parameter of run_campaign on every backend (serial lanes, supervised
pool, loopback fabric), and the ``--kernel`` CLI flag."""

import threading

import pytest

from repro.__main__ import main
from repro.chaos import run_campaign, smoke_campaign
from repro.chaos.campaign import KERNELS, run_cell
from repro.errors import ResilienceError
from repro.resilience import FabricConfig, FabricCoordinator, run_worker


def test_kernels_constant():
    assert KERNELS == ("interp", "compiled")


def test_serial_reports_byte_identical():
    interp = run_campaign(smoke_campaign(), limit=4, kernel="interp")
    compiled = run_campaign(
        smoke_campaign(), limit=4, kernel="compiled"
    )
    assert interp.render() == compiled.render()
    assert [r.outcome for r in interp.records] == [
        r.outcome for r in compiled.records
    ]


def test_run_cell_kernel_parity():
    spec = smoke_campaign()
    cell = list(spec.cells())[0]
    interp = run_cell(cell, kernel="interp")
    compiled = run_cell(cell, kernel="compiled")
    assert interp.outcome == compiled.outcome
    assert interp.detail == compiled.detail


def test_unknown_kernel_rejected():
    with pytest.raises(ResilienceError):
        run_campaign(smoke_campaign(), limit=1, kernel="vectorized")
    with pytest.raises(ResilienceError):
        run_cell(list(smoke_campaign().cells())[0], kernel="nope")


def _fabric_campaign(spec, limit, kernel):
    """Run through a loopback fabric with two in-thread workers."""
    coordinator = FabricCoordinator(
        FabricConfig(lease_s=30.0, heartbeat_s=0.5)
    )
    host, port = coordinator.address
    threads = [
        threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs={"name": f"w{i}"},
            daemon=True,
        )
        for i in range(2)
    ]
    for thread in threads:
        thread.start()
    report = run_campaign(
        spec, limit=limit, backend="fabric", fabric=coordinator,
        kernel=kernel,
    )
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()  # shutdown reached every worker
    assert not report.fabric.degraded  # the workers ran every cell
    return report


BACKEND_RUNS = {
    "serial": lambda spec, limit, kernel: run_campaign(
        spec, limit=limit, kernel=kernel
    ),
    "pool": lambda spec, limit, kernel: run_campaign(
        spec, limit=limit, workers=2, kernel=kernel
    ),
    "fabric": _fabric_campaign,
}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("backend", sorted(BACKEND_RUNS))
def test_backend_kernel_reports_byte_identical(backend, kernel):
    """Every backend x kernel pair renders the serial interp report,
    and every backend ships rows, not traced runs."""
    spec = smoke_campaign()
    reference = run_campaign(spec, limit=4)
    report = BACKEND_RUNS[backend](spec, 4, kernel)
    assert report.render() == reference.render()
    assert all(record.result is None for record in report.records)


def test_chaos_run_cli_kernel_flag(capsys):
    code = main(
        ["chaos", "run", "--smoke", "--cells", "1", "--kernel",
         "compiled"]
    )
    capsys.readouterr()
    assert code == 0


def test_kernel_cli_dump(capsys):
    assert main(["kernel", "--dump", "s_helper"]) == 0
    out = capsys.readouterr().out
    assert "content-hash: sha256:" in out
    assert "_K_make" in out


def test_kernel_cli_dump_unknown_exits_2(capsys):
    assert main(["kernel", "--dump", "definitely-not-an-automaton"]) == 2
    assert "no compiled automaton" in capsys.readouterr().err


def test_kernel_cli_list(capsys):
    assert main(["kernel", "--list"]) == 0
    out = capsys.readouterr().out
    assert "compiled" in out
    assert "interp" in out  # fallback rows state their kernel
