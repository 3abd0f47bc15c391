//! The decisions of create, recovery and repair, as pure functions of what
//! the runner saw: no `Ctx`, no clock, no RPC and no lock.
//! [`NclLib::create`] (a recovery with no responders, of an empty image),
//! [`NclLib::recover`] and the repair are runners: they gather the inputs
//! (the responders' headers, the outcome of each RPC), ask this module, and
//! execute the answer with post-everything, wait-once RPCs.
//! `crates/modelcheck` drives the same functions from its abstract states,
//! so the decisions it checks are the ones that run.
//!
//! The order the runner must keep is in the types: an [`ApMapUpdate`] is
//! built only from a [`CaughtUp`] set, and a `CaughtUp` set only from a
//! catch-up round's outcomes ([`CaughtUp::landed`]).
//!
//! [`NclLib::create`]: super::NclLib::create
//! [`NclLib::recover`]: super::NclLib::recover

use super::scheme;
use crate::config::Durability;
use crate::layout::RegionHeader;
use crate::NclError;

/// Where recovery reads the acked prefix from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Replicated: responder `i`'s image, read back whole. The responder
    /// with the highest sequence number covers every acked record, because
    /// every recovery quorum meets every ack quorum.
    Image(usize),
    /// Erasure-coded: the spill snapshot of `gmax`, the highest generation
    /// any responder reached (none at 0), then the fragment logs each
    /// responder serves to a walk at `gmax` ([`scheme::served_logs`]).
    Decode {
        /// The highest responder generation.
        gmax: u64,
    },
}

impl Source {
    /// The generation whose spill snapshot the decode starts from, if any.
    pub fn snapshot(self) -> Option<u64> {
        match self {
            Source::Decode { gmax } if gmax > 0 => Some(gmax),
            _ => None,
        }
    }
}

/// Recovery's quorum check and source: `headers` are the responders', one
/// each, out of `asked` ap-map peers. Fewer than the scheme's recovery
/// quorum is [`NclError::QuorumUnavailable`].
pub fn source(
    durability: Durability,
    f: usize,
    asked: usize,
    headers: &[RegionHeader],
) -> Result<Source, NclError> {
    let need = scheme::recovery_quorum(durability, f);
    if headers.len() < need {
        return Err(NclError::QuorumUnavailable(format!(
            "{} of {asked} peers responded, need {need}",
            headers.len()
        )));
    }
    Ok(match durability {
        Durability::Replicated => {
            let max = (0..headers.len()).max_by_key(|&i| headers[i].seq);
            Source::Image(max.expect("a quorum is never empty"))
        }
        Durability::Ec { .. } => Source::Decode {
            gmax: headers.iter().map(|h| h.gen).max().unwrap_or(0),
        },
    })
}

/// How one peer is caught up to the recovered image under the new epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// A fresh replacement: the image (only the header when the scheme
    /// ships none) into the region it just lent.
    Fresh,
    /// `Adopt` the live region (epoch raised, fresh rkey, bytes untouched),
    /// then the missing tail, from byte `from`, and the header into it.
    InPlace {
        /// The responder's length: where its bytes stop being a prefix.
        from: u64,
    },
    /// `Prepare` a fresh zeroed region, ship the whole image (only the
    /// header when the scheme ships none) into it, and `Commit` the switch.
    FullCopy,
}

impl Action {
    /// A responder's catch-up to the recovered `header`, given the one it
    /// served: in place when the scheme ships the image, neither header is
    /// overwritten and the responder is no longer than the image (its bytes
    /// are then a prefix of it, §6 byte-diff); a full copy otherwise — a
    /// lagging circular region is not a prefix (Figure 7ii), and an
    /// erasure-coded reset rewrites the fragment area.
    pub fn for_responder(ships_image: bool, header: &RegionHeader, peer: &RegionHeader) -> Self {
        let prefix = !header.overwritten && !peer.overwritten && peer.len <= header.len;
        if ships_image && prefix {
            Action::InPlace { from: peer.len }
        } else {
            Action::FullCopy
        }
    }

    /// What follows when this action's RPC is refused or unanswered: an
    /// `Adopt` falls back to a full copy (a predecessor's recovery or repair
    /// already raised the region to this epoch); a refused `Prepare` drops
    /// the peer.
    pub fn refused(self) -> Option<Self> {
        match self {
            Action::InPlace { .. } => Some(Action::FullCopy),
            Action::Fresh | Action::FullCopy => None,
        }
    }

    /// The body shipped ahead of the header, as (data offset, bytes), cut
    /// from `image` when the scheme ships one.
    pub fn body(self, image: Option<&[u8]>) -> Option<(usize, &[u8])> {
        let from = match self {
            Action::InPlace { from } => from as usize,
            Action::Fresh | Action::FullCopy => 0,
        };
        image.map(|bytes| (from, &bytes[from..]))
    }

    /// The detail a per-peer catch-up span carries.
    pub fn detail(self) -> &'static str {
        match self {
            Action::Fresh => "fresh peer",
            Action::InPlace { .. } => "tail in place",
            Action::FullCopy => "full copy",
        }
    }
}

/// The rows fresh peers inherit, one per replacement needed: those of the
/// scheme's `peers_per_file` rows that no peer in `used` holds, in order.
pub fn replacements(
    durability: Durability,
    f: usize,
    used: impl IntoIterator<Item = u32>,
) -> Vec<u32> {
    let used: Vec<u32> = used.into_iter().collect();
    let rows = 0..scheme::peers_per_file(durability, f) as u32;
    rows.filter(|row| !used.contains(row)).collect()
}

/// The peers of catch-up rounds whose copies landed, in order. Only
/// [`CaughtUp::landed`] builds one, from the rounds' outcomes.
#[derive(Debug)]
pub struct CaughtUp<T> {
    peers: Vec<T>,
    /// Every peer of every round landed.
    all: bool,
}

impl<T> CaughtUp<T> {
    /// Splits catch-up rounds, each peer with whether its copy landed, into
    /// the caught-up set and the peers that missed (whose regions the runner
    /// frees).
    pub fn landed(round: impl IntoIterator<Item = (T, bool)>) -> (Self, Vec<T>) {
        let (landed, missed): (Vec<_>, Vec<_>) = round.into_iter().partition(|(_, ok)| *ok);
        let peers = landed.into_iter().map(|(peer, _)| peer).collect();
        let all = missed.is_empty();
        (
            CaughtUp { peers, all },
            missed.into_iter().map(|(peer, _)| peer).collect(),
        )
    }
}

/// An ap-map entry the runner may publish: its peers, borrowed, in order.
/// There is no way to build one but from a [`CaughtUp`] set, so a publish
/// cannot precede the catch-up it depends on:
///
/// ```compile_fail
/// use ncl::file::plan::ApMapUpdate;
/// let peers = ["peer-0", "peer-1"];
/// let update = ApMapUpdate { survivors: &peers[..], caught: &peers[..] };
/// ```
#[derive(Debug)]
pub struct ApMapUpdate<'a, T> {
    survivors: &'a [T],
    caught: &'a [T],
}

impl<'a, T> ApMapUpdate<'a, T> {
    /// The entry of a create or a recovery: every caught-up peer, if they
    /// make the scheme's ack quorum.
    pub fn recovery(
        durability: Durability,
        f: usize,
        caught: &'a CaughtUp<T>,
    ) -> Result<Self, NclError> {
        let quorum = scheme::ack_quorum(durability, f);
        if caught.peers.len() < quorum {
            return Err(NclError::QuorumUnavailable(format!(
                "caught up {} peers, the acknowledgement quorum is {quorum}",
                caught.peers.len()
            )));
        }
        Ok(ApMapUpdate {
            survivors: &[],
            caught: &caught.peers,
        })
    }

    /// A repair's entry: the survivors, which hold every acked record
    /// already, then the fresh peers — only if every fresh peer caught up.
    pub fn repair(survivors: &'a [T], fresh: &'a CaughtUp<T>) -> Result<Self, NclError> {
        if !fresh.all {
            return Err(NclError::Unavailable("fresh peer not caught up".into()));
        }
        Ok(ApMapUpdate {
            survivors,
            caught: &fresh.peers,
        })
    }

    /// The entry's peers, in order.
    pub fn peers(&self) -> impl Iterator<Item = &'a T> {
        self.survivors.iter().chain(self.caught)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLICATED: Durability = Durability::Replicated;
    const EC: Durability = Durability::Ec { k: 2, n: 3 };

    fn header(seq: u64, len: u64, overwritten: bool) -> RegionHeader {
        RegionHeader {
            seq,
            len,
            overwritten,
            ..RegionHeader::default()
        }
    }

    #[test]
    fn each_responder_gets_the_catch_up_its_header_allows() {
        let recovered = header(9, 900, false);
        let in_place = |from| Action::InPlace { from };
        let rows = [
            (
                "lagging prefix",
                true,
                recovered,
                header(4, 400, false),
                in_place(400),
            ),
            (
                "current",
                true,
                recovered,
                header(9, 900, false),
                in_place(900),
            ),
            (
                "longer than the image",
                true,
                recovered,
                header(11, 1100, false),
                Action::FullCopy,
            ),
            (
                "responder overwritten",
                true,
                recovered,
                header(4, 400, true),
                Action::FullCopy,
            ),
            (
                "image overwritten",
                true,
                header(9, 900, true),
                header(4, 400, false),
                Action::FullCopy,
            ),
            (
                "erasure-coded",
                false,
                recovered,
                header(4, 400, false),
                Action::FullCopy,
            ),
        ];
        for (case, ships_image, recovered, peer, want) in rows {
            let got = Action::for_responder(ships_image, &recovered, &peer);
            assert_eq!(got, want, "{case}");
        }
    }

    #[test]
    fn a_refused_adopt_falls_back_to_a_full_copy_and_a_refused_prepare_drops() {
        assert_eq!(
            Action::InPlace { from: 3 }.refused(),
            Some(Action::FullCopy)
        );
        assert_eq!(Action::FullCopy.refused(), None);
        assert_eq!(Action::Fresh.refused(), None);
        let image: &[u8] = b"abcdef";
        assert_eq!(
            Action::InPlace { from: 3 }.body(Some(image)),
            Some((3, &b"def"[..]))
        );
        assert_eq!(Action::FullCopy.body(Some(image)), Some((0, image)));
        assert_eq!(Action::Fresh.body(None), None, "no image, only the header");
    }

    #[test]
    fn the_source_is_the_highest_responder_and_a_short_set_is_no_quorum() {
        let headers = [
            header(3, 3, false),
            header(7, 7, false),
            header(5, 5, false),
        ];
        assert_eq!(
            source(REPLICATED, 1, 3, &headers).unwrap(),
            Source::Image(1)
        );
        let short = source(REPLICATED, 1, 3, &headers[..1]).unwrap_err();
        assert!(
            matches!(short, NclError::QuorumUnavailable(m) if m == "1 of 3 peers responded, need 2")
        );
        let gens = [1, 3, 2].map(|gen| RegionHeader {
            gen,
            ..RegionHeader::default()
        });
        let decode = source(EC, 0, 3, &gens).unwrap();
        assert_eq!(
            (decode, decode.snapshot()),
            (Source::Decode { gmax: 3 }, Some(3))
        );
        let fresh = source(EC, 0, 3, &[RegionHeader::default(); 2]).unwrap();
        assert_eq!(fresh.snapshot(), None, "generation 0 has no snapshot");
        assert!(matches!(
            source(EC, 0, 3, &gens[..1]),
            Err(NclError::QuorumUnavailable(_))
        ));
    }

    #[test]
    fn a_repair_replaces_the_free_rows_and_publishes_only_a_complete_catch_up() {
        assert_eq!(replacements(REPLICATED, 1, [0, 2]), [1]);
        assert_eq!(replacements(REPLICATED, 2, [4, 1]), [0, 2, 3]);
        assert_eq!(
            replacements(Durability::Ec { k: 4, n: 6 }, 0, [0, 1, 5]),
            [2, 3, 4]
        );
        assert!(replacements(REPLICATED, 1, [0, 1, 2]).is_empty());

        let survivors = ["a", "b"];
        let (fresh, missed) = CaughtUp::landed([("c", true)]);
        assert!(missed.is_empty());
        let update = ApMapUpdate::repair(&survivors, &fresh).unwrap();
        assert_eq!(update.peers().copied().collect::<Vec<_>>(), ["a", "b", "c"]);
        let (fresh, missed) = CaughtUp::landed([("c", true), ("d", false)]);
        assert_eq!(missed, ["d"]);
        assert!(
            ApMapUpdate::repair(&survivors, &fresh).is_err(),
            "d never caught up"
        );
    }

    #[test]
    fn recovery_publishes_its_caught_up_rounds_only_at_an_ack_quorum() {
        let (caught, dropped) = CaughtUp::landed([("a", true), ("b", false)]);
        assert_eq!(dropped, ["b"]);
        assert!(
            ApMapUpdate::recovery(REPLICATED, 1, &caught).is_err(),
            "1 < f + 1"
        );
        // A later round, whose fresh peer c landed and d missed.
        let rounds = [("a", true), ("b", false), ("c", true), ("d", false)];
        let (caught, _) = CaughtUp::landed(rounds);
        let update = ApMapUpdate::recovery(REPLICATED, 1, &caught).unwrap();
        assert_eq!(update.peers().copied().collect::<Vec<_>>(), ["a", "c"]);
        assert!(
            ApMapUpdate::recovery(EC, 0, &caught).is_err(),
            "EC acks on all n"
        );
    }
}
