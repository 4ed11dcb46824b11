//! The metrics the benchmark prints are the ones `BENCHMARK.json`
//! lists. The file is compiled in and read here, so every name, unit
//! and bound is written down once.

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The text of `"key": <value>` in `object`, without the quotes of a
/// string value.
fn field(object: &'static str, key: &str) -> Option<&'static str> {
    let after_key = &object[object.find(&format!("\"{key}\""))? + key.len() + 2..];
    let value = after_key.trim_start().strip_prefix(':')?.trim_start();
    match value.strip_prefix('"') {
        Some(text) => Some(&text[..text.find('"')?]),
        None => Some(value[..value.find([',', '}'])?].trim_end()),
    }
}

/// The objects of the list `"section": [...]`; none of them nests.
fn objects(section: &str) -> impl Iterator<Item = &'static str> {
    let start = MANIFEST
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let list = &MANIFEST[start..];
    let list = &list[..list.find(']').expect("the list ends")];
    list.split('{')
        .skip(1)
        .map(|o| &o[..=o.find('}').expect("the object ends")])
}

fn metrics(section: &str) -> Vec<MetricDef> {
    let text = |o, key| field(o, key).unwrap_or_else(|| panic!("a {section} metric has no {key}"));
    objects(section)
        .map(|o| MetricDef {
            name: text(o, "name"),
            unit: text(o, "unit"),
            better: text(o, "better"),
            bound: field(o, "bound").map(|b| b.parse().expect("a bound is a number")),
        })
        .collect()
}

/// What a user of the system sees; printed by an untraced run.
pub fn end_to_end() -> Vec<MetricDef> {
    metrics("end_to_end")
}

/// Single layers; printed by a traced run. A metric that does not
/// apply to a workload (`build.insert_s` on an SF build) reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    metrics("per_layer")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_manifest_reads_back() {
        let e2e = end_to_end();
        assert!(e2e.iter().all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let layers = per_layer();
        assert!(layers.iter().all(|d| d.bound.is_none()));
        assert!(layers.iter().any(|d| d.name == "btree.bulk_ns_per_key"));
    }

    #[test]
    fn the_manifest_names_the_workloads_there_are() {
        let listed: Vec<&str> = objects("workloads")
            .map(|o| field(o, "name").expect("a workload has a name"))
            .collect();
        let run: Vec<&str> = crate::workloads::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(listed, run);
    }
}
