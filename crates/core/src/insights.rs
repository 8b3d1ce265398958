//! Natural-language rendering of mined rules.
//!
//! The paper's pitch is that association rules are *directly* readable by
//! operators. This module finishes the job: it turns a pruned keyword
//! analysis into the English sentences an operator would write in an
//! incident doc — "jobs that request the standard CPU count are 2.7x more
//! likely to be idle-GPU jobs (61% of them are; seen in 11% of jobs)".

use irma_mine::{ItemCatalog, ItemId};
use irma_rules::Rule;

use crate::workflow::Analysis;

/// Renders one itemset as a comma-separated phrase ("a, b and c").
fn phrase(catalog: &ItemCatalog, items: &[ItemId]) -> String {
    let labels: Vec<&str> = items.iter().map(|&i| catalog.label(i)).collect();
    match labels.len() {
        0 => String::new(),
        1 => labels[0].to_string(),
        n => format!("{} and {}", labels[..n - 1].join(", "), labels[n - 1]),
    }
}

/// One rule as an operator-readable sentence.
pub fn describe_rule(catalog: &ItemCatalog, rule: &Rule, keyword: ItemId) -> String {
    let lift = format!("{:.1}x", rule.lift);
    let conf = format!("{:.0}%", rule.confidence * 100.0);
    let supp = format!("{:.0}%", rule.support * 100.0);
    if rule.consequent.contains(keyword) {
        // Cause: antecedent predicts the keyword (+ any side findings).
        let side: Vec<ItemId> = rule
            .consequent
            .items()
            .iter()
            .copied()
            .filter(|&i| i != keyword)
            .collect();
        let side_note = if side.is_empty() {
            String::new()
        } else {
            format!(" (these jobs also show {})", phrase(catalog, &side))
        };
        format!(
            "Jobs with {} are {} more likely than average to end up as `{}`{}: {} of them do, covering {} of all jobs.",
            phrase(catalog, rule.antecedent.items()),
            lift,
            catalog.label(keyword),
            side_note,
            conf,
            supp,
        )
    } else {
        // Characteristic: the keyword (plus context) implies traits.
        let context: Vec<ItemId> = rule
            .antecedent
            .items()
            .iter()
            .copied()
            .filter(|&i| i != keyword)
            .collect();
        let context_note = if context.is_empty() {
            String::new()
        } else {
            format!(" that also have {}", phrase(catalog, &context))
        };
        format!(
            "`{}` jobs{} typically show {} ({} of them; {} lift; {} of all jobs).",
            catalog.label(keyword),
            context_note,
            phrase(catalog, rule.consequent.items()),
            conf,
            lift,
            supp,
        )
    }
}

/// The top operator insights for one keyword, as a bulleted report.
pub fn insight_report(analysis: &Analysis, keyword_label: &str, top: usize) -> String {
    let Some(keyword) = analysis.item(keyword_label) else {
        return format!("no insights: item `{keyword_label}` not present\n");
    };
    let Some(kw) = analysis.keyword(keyword_label) else {
        return format!("no insights: item `{keyword_label}` not present\n");
    };
    let catalog = &analysis.encoded.catalog;
    let mut out = format!("Insights for `{keyword_label}`:\n");
    if kw.causes.is_empty() && kw.characteristics.is_empty() {
        out.push_str("  (no rules survived filtering — try lower thresholds)\n");
        return out;
    }
    for rule in kw.causes.iter().take(top) {
        out.push_str("  * ");
        out.push_str(&describe_rule(catalog, rule, keyword));
        out.push('\n');
    }
    for rule in kw.characteristics.iter().take(top) {
        out.push_str("  * ");
        out.push_str(&describe_rule(catalog, rule, keyword));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::try_analyze;
    use crate::workflow::AnalysisConfig;
    use irma_data::read_csv_str;
    use irma_mine::Itemset;
    use irma_prep::{EncoderSpec, FeatureSpec, ZeroBin};

    #[test]
    fn cause_sentence_shape() {
        let mut catalog = ItemCatalog::new();
        let std_cpu = catalog.intern("CPU Request = Std");
        let idle = catalog.intern("SM Util = 0%");
        let freq = catalog.intern("Freq User");
        let rule = Rule {
            antecedent: Itemset::from_items([std_cpu]),
            consequent: Itemset::from_items([idle, freq]),
            support_count: 110,
            support: 0.11,
            confidence: 0.61,
            lift: 2.73,
        };
        let text = describe_rule(&catalog, &rule, idle);
        assert!(text.contains("CPU Request = Std"), "{text}");
        assert!(text.contains("2.7x"), "{text}");
        assert!(text.contains("61%"), "{text}");
        assert!(text.contains("also show Freq User"), "{text}");
    }

    #[test]
    fn characteristic_sentence_shape() {
        let mut catalog = ItemCatalog::new();
        let failed = catalog.intern("Failed");
        let long = catalog.intern("Runtime = Bin4");
        let cluster = catalog.intern("Cluster = C");
        let rule = Rule {
            antecedent: Itemset::from_items([failed, cluster]),
            consequent: Itemset::from_items([long]),
            support_count: 50,
            support: 0.05,
            confidence: 0.41,
            lift: 1.66,
        };
        let text = describe_rule(&catalog, &rule, failed);
        assert!(
            text.starts_with("`Failed` jobs that also have Cluster = C"),
            "{text}"
        );
        assert!(text.contains("Runtime = Bin4"), "{text}");
    }

    #[test]
    fn report_from_pipeline() {
        let mut csv = String::from("runtime,sm\n");
        for i in 0..40 {
            if i < 16 {
                csv.push_str("10,0.0\n");
            } else {
                csv.push_str(&format!("{},70.0\n", 5000 + i));
            }
        }
        let frame = read_csv_str(&csv).unwrap();
        let spec = EncoderSpec::new(vec![
            FeatureSpec::numeric("runtime", "Runtime"),
            FeatureSpec::numeric_zero("sm", "SM Util", ZeroBin::percent()),
        ]);
        let analysis = try_analyze(&frame, &spec, &AnalysisConfig::default()).unwrap();
        let report = insight_report(&analysis, "SM Util = 0%", 3);
        assert!(report.contains("Insights for"), "{report}");
        assert!(report.contains("* "), "{report}");
        let missing = insight_report(&analysis, "Nope", 3);
        assert!(missing.contains("not present"));
    }
}
