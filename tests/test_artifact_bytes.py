"""The bytes of a sweep's artifacts and figure datasets, pinned.

A 2-point sweep of the bundled trace, with malicious jobs and enforcement
on, then every figure dataset.  The digests were recorded from the package
before its artifact writers and readers were rewritten for speed; any
change to them must leave every file byte for byte as it was.
"""

import hashlib
import shutil

from epcsched import experiment, report
from epcsched.synthetic import bundled_trace_path
from epcsched.trace import ScalingConfig

MIB = 1 << 20

DIGESTS = {
    "epc-64MiB_sgx-050_binpack_mal/jobs.csv":
        "5c4519fe4e9dac6843c16fbc0e091aded65c6966568c40c7d758525234175f0b",
    "epc-64MiB_sgx-050_binpack_mal/meta.json":
        "3e9d11482d347bc14c2120448e4cc894457f6244e246e70607740ce03923e3f3",
    "epc-64MiB_sgx-050_binpack_mal/outcomes.csv":
        "16e160ecc5e5678f9825d8358c8b1ed444526a224515fd1df3d21a46c2559121",
    "epc-64MiB_sgx-050_binpack_mal/pending_epc.csv":
        "a1249d93880a6cb0ed2fafa341aa2a164ce4bd850e4e772bdcbc5e6bbc78564d",
    "epc-64MiB_sgx-050_binpack_mal/samples.csv":
        "8c583a7846d0c2a982186681d69f4a288c087a5784d24642b00538d61ae8ae9e",
    "epc-64MiB_sgx-050_binpack_mal/summary.json":
        "4113c39e85873d665d370f50f7f9e5dfba63ae18230c38cc2d3050a948704cd6",
    "epc-64MiB_sgx-100_binpack_mal/jobs.csv":
        "14321fab44d41a7bae770f705d391c299860ddb0980acd1e55d1790ed8a84814",
    "epc-64MiB_sgx-100_binpack_mal/meta.json":
        "56a0b6954eb2927855cad28556a3dcc79e6a293fd6afb4e4d020ccfadfd8af55",
    "epc-64MiB_sgx-100_binpack_mal/outcomes.csv":
        "2b73923d791ec05b42246c09c8729e9b84c6489a5e2d6e5006014aaca9715091",
    "epc-64MiB_sgx-100_binpack_mal/pending_epc.csv":
        "4f438ae54abb67de4166c82799e5a64734298c69095e35342d26464155bda54a",
    "epc-64MiB_sgx-100_binpack_mal/samples.csv":
        "fe18790a3b577dd12bf6b81cfb159d59a0c21af1e089122d545cb065aa09790b",
    "epc-64MiB_sgx-100_binpack_mal/summary.json":
        "a76b179b6b93075fa72cdd068bd32949e23955cd1a31d25c33fd92c9443ea419",
    "experiment.json":
        "b0ae2595773b38d69b457f7387cae8da31be71d43ac0befb4846349b4b3dac2c",
    "fig10.dat":
        "db8845d6dbddbd7ea732bb6ff38586218a0f2ee5ea59db9619ca5e4249d23c38",
    "fig6.dat":
        "53f18bad5ae1dcd896476406e82f55aa1962975b24b3ad62b6789925e60d6e01",
    "fig7.dat":
        "0b7c4fa310791e51ba73a4a51c9bf34586234db62f6086f562ea4b5d6ebd215c",
    "fig8.dat":
        "83643692fbce9fa7c3f5223ae6065319d50e05c9f0b9154a7deaf073e605e62b",
    "fig9.dat":
        "0b7c4fa310791e51ba73a4a51c9bf34586234db62f6086f562ea4b5d6ebd215c",
}


def test_bundled_sweep_and_figures_keep_their_bytes(tmp_path, monkeypatch):
    # Relative paths keep the experiment echo the same in every checkout.
    shutil.copy(bundled_trace_path(), tmp_path / "trace.csv")
    monkeypatch.chdir(tmp_path)
    cfg = experiment.ExperimentConfig(
        trace_file="trace.csv", scaling=ScalingConfig(rng_seed=140051),
        epc_usable_sweep=(64 * MIB,), sgx_fraction_sweep=(0.5, 1.0),
        malicious=experiment.MaliciousConfig(n=2), enforce_limits=True,
        output_dir="out", workers=1)
    root = experiment.run_experiment(cfg)
    for figure in report.FIGURES:
        report.figure_dataset(root, figure)
    got = {path.relative_to(root).as_posix():
           hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(root.rglob("*")) if path.is_file()}
    assert got == DIGESTS
