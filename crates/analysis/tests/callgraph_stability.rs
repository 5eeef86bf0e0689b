//! Golden determinism test: the workspace call-graph export is
//! byte-stable — two independent loads and builds over the real tree
//! render identical `greenps-callgraph/1` JSON. CI re-checks the same
//! property across two process invocations.

use greenps_analysis::callgraph::CallGraph;
use greenps_analysis::{load_sources, workspace_root, SourceFile};
use std::path::Path;

fn first_party_sources() -> Vec<SourceFile> {
    let root = workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above CARGO_MANIFEST_DIR");
    let mut files = load_sources(&root, "crates").expect("load crates/");
    files.extend(load_sources(&root, "src").expect("load src/"));
    files.retain(|f| f.path.starts_with("crates/") || f.path.starts_with("src/"));
    files.sort_by(|a, b| a.path.cmp(&b.path));
    files
}

#[test]
fn callgraph_json_is_byte_stable() {
    let a = CallGraph::build(&first_party_sources()).to_json();
    let b = CallGraph::build(&first_party_sources()).to_json();
    assert_eq!(
        a, b,
        "two builds over the same tree must render identically"
    );
    assert!(a.starts_with("{\n  \"schema\": \"greenps-callgraph/1\""));
}

#[test]
fn callgraph_covers_the_known_hot_entries() {
    let g = CallGraph::build(&first_party_sources());
    for entry in [
        "greenps_core::cram::Engine::attempt",
        "greenps_simnet::network::Network::dispatch",
        "greenps_pubsub::matching::BucketMatcher::matches_into",
        "greenps_pubsub::index::RoutingIndex::walk",
        "greenps_broker::logic::BrokerCore::handle_publication",
    ] {
        assert!(
            !g.find_suffix(entry).is_empty(),
            "hot-paths.txt entry `{entry}` must resolve in the graph"
        );
    }
}
