//! Error type shared by all meta-database operations.

use std::fmt;

use crate::link::LinkId;
use crate::oid::Oid;

/// Errors produced by the meta-database and the layers directly above it.
///
/// Every fallible public operation in this crate returns
/// `Result<_, MetaError>`. The variants are deliberately precise so that the
/// run-time engine can distinguish "the OID you targeted does not exist"
/// (a designer error the paper surfaces to the wrapper program) from internal
/// consistency problems.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MetaError {
    /// The referenced OID handle is stale (the object was deleted) or was
    /// never issued by this database.
    StaleOid {
        /// Human-readable description of the handle.
        handle: String,
    },
    /// The referenced link handle is stale or foreign.
    StaleLink {
        /// The offending link id.
        link: LinkId,
    },
    /// No object with this block/view/version triplet exists.
    UnknownOid {
        /// The triplet that failed to resolve.
        oid: Oid,
    },
    /// An object with this triplet already exists; OIDs are unique.
    DuplicateOid {
        /// The duplicated triplet.
        oid: Oid,
    },
    /// A version-chain operation referenced a version that does not exist.
    UnknownVersion {
        /// Block name of the chain.
        block: String,
        /// View type of the chain.
        view: String,
        /// The missing version number.
        version: u32,
    },
    /// A link endpoint does not belong to this database.
    ForeignEndpoint,
    /// A self-link was requested; the paper's link classes all relate two
    /// distinct objects.
    SelfLink {
        /// The OID that was both ends.
        oid: Oid,
    },
    /// A workspace operation conflicted with check-out state.
    CheckoutConflict {
        /// The object in conflict.
        oid: Oid,
        /// Who currently holds it, if anyone.
        holder: Option<String>,
    },
    /// A `postEvent` line (Section 3.1 wire format) failed to parse.
    WireParse {
        /// What went wrong.
        reason: String,
        /// The offending input line.
        input: String,
    },
    /// A `qlang` query string failed to parse.
    QueryParse {
        /// What went wrong.
        reason: String,
        /// The offending query.
        input: String,
    },
    /// A project image (`persist` text, `damocles-db v1`) failed to load.
    ImageParse {
        /// What went wrong.
        reason: String,
        /// The offending image line.
        line: String,
    },
    /// An OID string (`block,view,version`) failed to parse.
    OidParse {
        /// What went wrong.
        reason: String,
        /// The offending input.
        input: String,
    },
    /// A configuration referenced addresses that are no longer valid and the
    /// caller asked for strict resolution.
    StaleConfiguration {
        /// Name of the configuration.
        name: String,
        /// Number of dangling addresses found.
        dangling: usize,
    },
}

impl MetaError {
    /// A compact reason suitable for embedding in another diagnostic
    /// (positioned parse errors quote it after the expectation): parse
    /// variants yield just their reason, everything else the full
    /// rendering.
    pub fn short_reason(&self) -> String {
        match self {
            MetaError::OidParse { reason, .. } | MetaError::WireParse { reason, .. } => {
                reason.clone()
            }
            other => other.to_string(),
        }
    }
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaError::StaleOid { handle } => {
                write!(f, "stale or foreign OID handle {handle}")
            }
            MetaError::StaleLink { link } => write!(f, "stale or foreign link handle {link:?}"),
            MetaError::UnknownOid { oid } => write!(f, "unknown OID {oid}"),
            MetaError::DuplicateOid { oid } => write!(f, "OID {oid} already exists"),
            MetaError::UnknownVersion {
                block,
                view,
                version,
            } => write!(f, "no version {version} of <{block},{view}>"),
            MetaError::ForeignEndpoint => write!(f, "link endpoint belongs to another database"),
            MetaError::SelfLink { oid } => write!(f, "refusing self-link on {oid}"),
            MetaError::CheckoutConflict { oid, holder } => match holder {
                Some(h) => write!(f, "{oid} is checked out by {h}"),
                None => write!(f, "{oid} is not checked out"),
            },
            MetaError::WireParse { reason, input } => {
                write!(f, "invalid postEvent message `{input}`: {reason}")
            }
            MetaError::QueryParse { reason, input } => {
                write!(f, "invalid query `{input}`: {reason}")
            }
            MetaError::ImageParse { reason, line } => {
                write!(f, "invalid damocles-db image at line `{line}`: {reason}")
            }
            MetaError::OidParse { reason, input } => {
                write!(f, "invalid OID `{input}`: {reason}")
            }
            MetaError::StaleConfiguration { name, dangling } => {
                write!(
                    f,
                    "configuration `{name}` has {dangling} dangling addresses"
                )
            }
        }
    }
}

impl std::error::Error for MetaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = MetaError::UnknownOid {
            oid: Oid::new("cpu", "schematic", 3),
        };
        let s = e.to_string();
        assert!(s.starts_with("unknown OID"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetaError>();
    }

    #[test]
    fn checkout_conflict_both_forms() {
        let oid = Oid::new("alu", "layout", 1);
        let held = MetaError::CheckoutConflict {
            oid: oid.clone(),
            holder: Some("yves".into()),
        };
        assert!(held.to_string().contains("checked out by yves"));
        let free = MetaError::CheckoutConflict { oid, holder: None };
        assert!(free.to_string().contains("not checked out"));
    }
}
