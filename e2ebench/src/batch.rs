//! `batch_pai`: the `irma analyze` path, from the PAI scheduler and
//! monitoring CSVs on disk to the paper's two rendered keyword tables.

use std::path::Path;
use std::time::{Duration, Instant};

use irma_check::flat_prune::flat_prune_rules;
use irma_core::{pai_spec, try_analyze, try_analyze_traced, Analysis, AnalysisConfig};
use irma_data::{inner_join, read_csv_path, write_csv_path};
use irma_obs::{Metrics, Provenance};
use irma_synth::{pai, TraceConfig};

use crate::alloc::{Attribution, Layer};
use crate::child::{self, info, op_fail, op_wrong, sample, sample_secs, Digest, Plan, Rng};
use crate::trace::{emit_heap, emit_prunes, traced_metrics, within, Sched, Stages};

pub const JOBS: usize = 200_000;

/// What a pass must reproduce: counts and the kept rule sets, which no
/// row order may change, then the rendered tables, whose order among
/// exactly tied rules follows the row order and so is compared with a
/// reference over the same rows.
fn fingerprint(analysis: &Analysis, rendered: &[String]) -> String {
    let catalog = &analysis.encoded.catalog;
    let mut kept = Digest::new();
    let mut n_kept = Vec::new();
    for label in child::PAPER_KEYWORDS {
        let rules = analysis
            .keyword(label)
            .map_or(Vec::new(), |k| k.outcome.kept);
        n_kept.push(rules.len());
        child::add_rules(&mut kept, &rules, catalog);
    }
    let mut render = Digest::new();
    for text in rendered {
        render.add(text.as_bytes());
    }
    format!(
        "jobs={} items={} itemsets={} rules={} kept={n_kept:?} kept_rules={} | render={}",
        analysis.n_jobs(),
        catalog.len(),
        analysis.frequent.len(),
        analysis.rules.len(),
        kept.hex(),
        render.hex()
    )
}

fn render(analysis: &Analysis, metrics: &Metrics) -> Vec<String> {
    child::PAPER_KEYWORDS
        .iter()
        .map(|label| analysis.render_keyword_with(label, child::TOP, metrics))
        .collect()
}

/// The trie-driven prune of one seeded catalog keyword against the flat
/// all-pairs oracle.
fn oracle_check(analysis: &Analysis, rng: &mut Rng) -> Result<(), String> {
    let catalog = &analysis.encoded.catalog;
    let id = rng.below(catalog.len()) as u32;
    let fast = analysis
        .keyword(catalog.label(id))
        .expect("catalog label resolves")
        .outcome;
    let flat = flat_prune_rules(
        &analysis.rules,
        id,
        &analysis.config.prune,
        &Provenance::disabled(),
    );
    if fast.kept == flat.kept && fast.pruned == flat.pruned {
        Ok(())
    } else {
        Err(format!(
            "prune of `{}` differs from the flat oracle",
            catalog.label(id)
        ))
    }
}

pub fn run(dir: &Path, plan: &Plan) {
    let seed = plan.seed;
    let sched_csv = dir.join("pai_scheduler.csv");
    let mon_csv = dir.join("pai_monitoring.csv");
    let (scheduler, monitoring) = child::setup(plan, || {
        let bundle = pai(&TraceConfig::with_jobs(JOBS).seeded(child::DATA_SEED));
        let mut rng = Rng::new(seed);
        let scheduler = bundle.scheduler.take(&rng.permutation(JOBS));
        let monitoring = bundle.monitoring.take(&rng.permutation(JOBS));
        std::fs::create_dir_all(dir).expect("creating the data directory");
        write_csv_path(&scheduler, &sched_csv).expect("writing the scheduler CSV");
        write_csv_path(&monitoring, &mon_csv).expect("writing the monitoring CSV");
        (scheduler, monitoring)
    });
    let csv_bytes = [&sched_csv, &mon_csv]
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum::<u64>();

    // Reference: the same rows joined in memory, never written to CSV.
    let config = AnalysisConfig::default();
    let reference = {
        let merged = inner_join(&scheduler, &monitoring, "job_id").expect("joining in memory");
        let analysis = try_analyze(&merged, &pai_spec(), &config).expect("reference analysis");
        fingerprint(&analysis, &render(&analysis, &Metrics::disabled()))
    };
    drop((scheduler, monitoring));
    info(&format!("reference {reference}"));

    child::measure(plan, 3, |i, traced| {
        let attribution = traced.then(Attribution::new);
        let metrics = attribution
            .as_ref()
            .map_or_else(Metrics::disabled, traced_metrics);
        let sched = Sched::now();
        let start = Instant::now();

        let parse_start = Instant::now();
        let frames = within(attribution.as_ref(), Layer::Data, || {
            read_csv_path(&sched_csv).and_then(|s| Ok((s, read_csv_path(&mon_csv)?)))
        });
        let parse = parse_start.elapsed();
        let Ok((scheduler, monitoring)) = frames else {
            return op_fail("csv read");
        };
        let join_start = Instant::now();
        let merged = within(attribution.as_ref(), Layer::Data, || {
            let merged = inner_join(&scheduler, &monitoring, "job_id");
            drop((scheduler, monitoring));
            merged
        });
        let join = join_start.elapsed();
        let Ok(merged) = merged else {
            return op_fail("join");
        };
        let analysis = match try_analyze_traced(
            &merged,
            &pai_spec(),
            &config,
            &metrics,
            &Provenance::disabled(),
        ) {
            Ok(analysis) => analysis,
            Err(error) => return op_fail(&format!("analyze: {error:?}")),
        };
        let render_start = Instant::now();
        let rendered = render(&analysis, &metrics);
        let render_wall = render_start.elapsed();
        let wall = start.elapsed();

        if traced {
            sample_secs("traced.batch_s", wall);
            let stages = Stages::of(&metrics);
            sample_secs("data.parse_s", parse);
            sample(
                "data.parse_mb_per_s",
                csv_bytes as f64 / crate::alloc::MB / parse.as_secs_f64(),
            );
            sample_secs("data.join_s", join);
            let mut covered = parse + join;
            for analyze in stages.analyses() {
                analyze.emit();
                covered += analyze.wall;
            }
            let prunes = stages.prunes();
            emit_prunes(&prunes);
            let prune_total: Duration = prunes.iter().map(|p| p.0).sum();
            sample(
                "core.render_ms",
                render_wall.saturating_sub(prune_total).as_secs_f64() * 1e3,
            );
            covered += render_wall;
            sample(
                "coverage_pct",
                100.0 * covered.as_secs_f64() / wall.as_secs_f64(),
            );
            emit_heap(attribution.as_ref().expect("traced pass"));
            sched.emit_since();
        } else {
            sample_secs("batch_s", wall);
        }

        let got = fingerprint(&analysis, &rendered);
        let mut rng = Rng::new(seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
        match oracle_check(&analysis, &mut rng) {
            Ok(()) => child::check_op("batch pass", &got, &reference),
            Err(message) => op_wrong(&message),
        }
    });
}
