//! CSV export of every reproduced artifact's underlying data.
//!
//! The experiments binary prints text renderings; replotting the paper's
//! figures (in gnuplot / matplotlib / anything) needs the raw series.
//! [`export_all`] writes one tidy CSV per artifact into a directory.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::experiments::{
    ablation_binning, ablation_pruning, failure_tables, fig1, fig3, fig4, fig5, misc_tables,
    table1, underutilization_tables, RuleTable,
};
use crate::traces::TraceAnalysis;

fn write(dir: &Path, name: &str, content: &str) -> std::io::Result<PathBuf> {
    let path = dir.join(name);
    std::fs::write(&path, content)?;
    Ok(path)
}

/// Escapes a CSV field (quotes fields containing separators).
fn field(text: &str) -> String {
    if text.contains(',') || text.contains('"') || text.contains('\n') {
        format!("\"{}\"", text.replace('"', "\"\""))
    } else {
        text.to_string()
    }
}

fn rule_table_csv(tables: &[RuleTable]) -> String {
    let mut out = String::from("table,tag,antecedent,consequent,support,confidence,lift\n");
    for table in tables {
        for (tag, ante, cons, supp, conf, lift) in &table.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{supp:.4},{conf:.4},{lift:.4}",
                field(&table.title),
                tag,
                field(ante),
                field(cons),
            );
        }
    }
    out
}

/// Writes every artifact's data as CSV; returns the files written.
pub fn export_all(traces: &[TraceAnalysis], dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();

    // Table I.
    let t1 = table1(traces);
    let mut csv = String::from("trace,jobs,users,zero_sm_share,failed_share\n");
    for (name, jobs, users, zero, failed) in &t1.rows {
        let _ = writeln!(csv, "{name},{jobs},{users},{zero:.4},{failed:.4}");
    }
    written.push(write(dir, "table1_overview.csv", &csv)?);

    // Fig. 1.
    let f1 = fig1(traces, &[0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5]);
    let mut csv = String::from("trace,min_support,n_itemsets\n");
    for (name, counts) in &f1.series {
        for (s, c) in f1.supports.iter().zip(counts) {
            let _ = writeln!(csv, "{name},{s},{c}");
        }
    }
    written.push(write(dir, "fig1_itemsets_vs_support.csv", &csv)?);

    // Fig. 3.
    let f3 = fig3(traces);
    let mut csv = String::from("lift_band,before,after\n");
    for (band, before, after) in &f3.bands {
        let _ = writeln!(csv, "{},{before},{after}", field(band));
    }
    written.push(write(dir, "fig3_pruning_bands.csv", &csv)?);

    // Fig. 4: one CDF file per trace.
    let f4 = fig4(traces);
    for (name, _, cdf) in &f4.rows {
        let mut csv = String::from("sm_util,cdf\n");
        for (x, y) in cdf.points(100) {
            let _ = writeln!(csv, "{x:.4},{y:.4}");
        }
        written.push(write(dir, &format!("fig4_cdf_{name}.csv"), &csv)?);
    }

    // Fig. 5.
    let f5 = fig5(traces);
    let mut csv = String::from("trace,status,share\n");
    for (name, shares) in &f5.rows {
        for (status, share) in shares {
            let _ = writeln!(csv, "{name},{},{share:.4}", field(status));
        }
    }
    written.push(write(dir, "fig5_exit_status.csv", &csv)?);

    // Rule tables.
    written.push(write(
        dir,
        "tables2_3_4_underutilization.csv",
        &rule_table_csv(&underutilization_tables(traces)),
    )?);
    written.push(write(
        dir,
        "tables5_6_7_failures.csv",
        &rule_table_csv(&failure_tables(traces)),
    )?);
    written.push(write(
        dir,
        "table8_misc.csv",
        &rule_table_csv(&misc_tables(traces).map_err(std::io::Error::other)?),
    )?);

    // Ablations.
    let ab = ablation_binning(traces).map_err(std::io::Error::other)?;
    let mut csv = String::from("scheme,itemsets,rules,keyword_rules_kept\n");
    for (scheme, itemsets, rules, kept) in &ab.rows {
        let _ = writeln!(csv, "{scheme},{itemsets},{rules},{kept}");
    }
    written.push(write(dir, "ablation_binning.csv", &csv)?);

    let ap = ablation_pruning(traces);
    let mut csv = String::from("c_margin,sm_kept,failed_kept\n");
    for (c, sm, failed) in &ap.rows {
        let _ = writeln!(csv, "{c},{sm},{failed}");
    }
    written.push(write(dir, "ablation_pruning.csv", &csv)?);

    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::{prepare_all, ExperimentScale};
    use crate::workflow::AnalysisConfig;
    use irma_data::read_csv_path;

    #[test]
    fn exports_parse_back_as_csv() {
        let scale = ExperimentScale {
            pai_jobs: 3_000,
            supercloud_jobs: 1_500,
            philly_jobs: 1_500,
            seed: 0xe5e5,
        };
        let traces = prepare_all(&scale, &AnalysisConfig::default()).unwrap();
        let dir = std::env::temp_dir().join(format!("irma_export_{}", std::process::id()));
        let files = export_all(&traces, &dir).unwrap();
        assert!(files.len() >= 10, "only {} files", files.len());
        for file in &files {
            let frame = read_csv_path(file)
                .unwrap_or_else(|e| panic!("{} unparseable: {e}", file.display()));
            assert!(frame.n_cols() >= 2, "{}", file.display());
        }
        // Spot-check a known series.
        let fig1 = read_csv_path(dir.join("fig1_itemsets_vs_support.csv")).unwrap();
        assert_eq!(fig1.n_rows(), 3 * 7);
        std::fs::remove_dir_all(&dir).ok();
    }
}
