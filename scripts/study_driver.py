"""The driver the study scripts share: an svdlora reference run, one run
per value of the swept config key, and a gap report of those variants
against the reference.
"""

import argparse
import json
import os

from oplora.bench.config import ExperimentConfig
from oplora.bench.report import gap_report
from oplora.bench.runner import run_experiment


def run_study(base, key, values, variant_dir, default_out_dir):
    """Run the study of config ``base`` over ``key`` in ``values``.

    Writes ``reference/``, ``variants/<variant_dir.format(value)>/`` and
    ``gap_report.json`` under ``--out-dir`` (default
    ``default_out_dir``), and prints the report.
    """
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default=default_out_dir)
    args = parser.parse_args()

    ref_dir = os.path.join(args.out_dir, "reference")
    run_experiment(ExperimentConfig.from_dict(
        dict(base, method="svdlora", out_dir=ref_dir)))

    var_dir = os.path.join(args.out_dir, "variants")
    for value in values:
        run_experiment(ExperimentConfig.from_dict(dict(
            base, **{key: value},
            out_dir=os.path.join(var_dir, variant_dir.format(value)))))

    report = gap_report(var_dir, ref_dir,
                        os.path.join(args.out_dir, "gap_report.json"))
    print(json.dumps(report, indent=2))
