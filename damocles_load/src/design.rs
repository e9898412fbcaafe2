//! The designs the workloads run on: `families` link-disjoint view
//! families, each a `stages`-deep derivation chain, instantiated for
//! `blocks` blocks — the chain design of the repository's
//! `waves_parallel` bench. A `ckin` at a chain's root propagates
//! `outofdate` down every stage, so one root event costs `stages`
//! deliveries.

use blueprint_core::engine::api::Request;
use damocles_meta::Oid;

/// The shape of one project's design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Design {
    /// Link-disjoint view families.
    pub families: usize,
    /// Derivation stages per family.
    pub stages: usize,
    /// Blocks (independent chains) per family.
    pub blocks: usize,
}

/// The user every generated request runs as.
pub const USER: &str = "load";

impl Design {
    /// The single-project design: 8 families × 6 stages × 64 blocks =
    /// 3,072 OIDs, 512 root chains.
    pub const PROJECT: Design = Design {
        families: 8,
        stages: 6,
        blocks: 64,
    };

    /// One fleet tenant: 4 families × 4 stages × 4 blocks = 64 OIDs.
    pub const TENANT: Design = Design {
        families: 4,
        stages: 4,
        blocks: 4,
    };

    /// OIDs a populated design starts with.
    pub fn oid_count(&self) -> usize {
        self.families * self.stages * self.blocks
    }

    /// Independent root-to-leaf chains.
    pub fn chains(&self) -> usize {
        self.families * self.blocks
    }

    /// Views, in declaration order after `default`.
    pub fn view_count(&self) -> usize {
        self.families * self.stages
    }

    /// The blueprint source. Every stage carries a `let`, so each delivery
    /// re-evaluates an expression as well as writing `uptodate`.
    pub fn blueprint(&self) -> String {
        use std::fmt::Write as _;
        let mut src = String::from(
            "blueprint waves\n\
             view default\n\
             \x20   property uptodate default true\n\
             \x20   let tracked = ($uptodate == true)\n\
             \x20   when ckin do uptodate = true; post outofdate down done\n\
             \x20   when outofdate do uptodate = false done\n\
             endview\n",
        );
        for f in 0..self.families {
            let _ = writeln!(src, "view f{f}_s0 endview");
            for s in 1..self.stages {
                let _ = writeln!(
                    src,
                    "view f{f}_s{s}\n    link_from f{f}_s{prev} move propagates outofdate, ckin type derived\nendview",
                    prev = s - 1
                );
            }
        }
        src.push_str("endblueprint\n");
        src
    }

    /// Chain `c`'s block name.
    pub fn block(&self, chain: usize) -> String {
        format!("f{}b{}", chain / self.blocks, chain % self.blocks)
    }

    /// Stage `s`'s view name in chain `c`'s family.
    pub fn view(&self, chain: usize, stage: usize) -> String {
        format!("f{}_s{stage}", chain / self.blocks)
    }

    /// The OID at `stage` of `chain`, at `version`.
    pub fn oid(&self, chain: usize, stage: usize, version: u32) -> Oid {
        Oid::new(self.block(chain), self.view(chain, stage), version)
    }

    /// The population requests: every chain's stages checked in and
    /// linked in order, then one drain of the resulting `ckin` events.
    pub fn setup_requests(&self) -> Vec<Request> {
        let mut out = Vec::with_capacity(self.oid_count() * 2 + 1);
        for chain in 0..self.chains() {
            for stage in 0..self.stages {
                out.push(Request::Checkin {
                    block: self.block(chain),
                    view: self.view(chain, stage),
                    user: USER.to_string(),
                    payload: vec![b'd'; 8],
                });
                if stage > 0 {
                    out.push(Request::Connect {
                        from: self.oid(chain, stage - 1, 1),
                        to: self.oid(chain, stage, 1),
                    });
                }
            }
        }
        out.push(Request::ProcessAll);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_the_stated_designs() {
        assert_eq!(Design::PROJECT.oid_count(), 3_072);
        assert_eq!(Design::PROJECT.chains(), 512);
        assert_eq!(Design::TENANT.oid_count(), 64);
        let setup = Design::TENANT.setup_requests();
        assert_eq!(setup.len(), 64 + 48 + 1);
        assert!(blueprint_core::parse(&Design::PROJECT.blueprint()).is_ok());
    }
}
