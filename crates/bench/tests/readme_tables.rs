//! The README quotes `BENCH_map.json`; this holds the quoted block to the
//! committed artifact, so regenerating one without the other fails here.

use rtsm_bench::render::{readme_admission_block, README_ADMISSION_BEGIN};

#[test]
fn readme_admission_figures_are_the_committed_bench_map_artifact() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let read = |name: &str| {
        std::fs::read_to_string(format!("{root}/{name}")).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let bench: serde::Value = serde_json::from_str(&read("BENCH_map.json")).expect("valid JSON");
    let block = readme_admission_block(&bench).expect("a `templates` section");
    assert!(block.starts_with(README_ADMISSION_BEGIN));
    assert!(
        read("README.md").contains(&block),
        "README.md's generated block is stale; paste what `bench_map` printed:\n{block}"
    );
}
