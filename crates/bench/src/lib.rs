//! Shared helpers for the reproduction benches.
//!
//! Each bench file regenerates one experiment listed in DESIGN.md §6
//! (Experiments), which also names the ablations the benches exercise.

use blueprint_core::engine::server::ProjectServer;
use damocles_flows::{generator, DesignSpec};

/// A strict-propagation server populated with `spec`'s design.
pub fn populated_server(spec: &DesignSpec) -> ProjectServer {
    let mut server = ProjectServer::from_source(&spec.blueprint_source(true))
        .expect("generated blueprint valid");
    generator::populate(&mut server, spec).expect("populate");
    server
}

/// A loosened (no-propagation) server populated with `spec`'s design.
pub fn loosened_server(spec: &DesignSpec) -> ProjectServer {
    let mut server = ProjectServer::from_source(&spec.blueprint_source(false))
        .expect("generated blueprint valid");
    generator::populate(&mut server, spec).expect("populate");
    server
}

/// Generates a blueprint source with `views` chained views, for parser
/// throughput benches.
pub fn chain_blueprint_source(views: usize) -> String {
    let spec = DesignSpec {
        stages: views,
        blocks: 1,
        fanout: 1,
    };
    spec.blueprint_source(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build() {
        let spec = DesignSpec::tiny();
        let s = populated_server(&spec);
        assert_eq!(s.db().oid_count(), spec.oid_count());
        let l = loosened_server(&spec);
        assert_eq!(l.db().oid_count(), spec.oid_count());
        assert!(chain_blueprint_source(5).contains("view v4"));
    }
}
