//! Fundamental MPI identifiers: ranks, tags, wildcards, and receive status.

use std::fmt;

/// A process rank. Within protocol messages ranks are always *global*
/// (world) ranks; communicators translate to and from local ranks at the API
/// boundary.
pub type Rank = usize;

/// A message tag. Valid user tags are `0..=TAG_UB`.
pub type Tag = u32;

/// Largest user tag (tags above this are reserved for collectives).
pub const TAG_UB: Tag = (1 << 28) - 1;

/// Source selector for receives and probes: a specific rank or
/// `MPI_ANY_SOURCE`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SourceSel {
    /// Match only this (communicator-local) rank.
    Rank(Rank),
    /// `MPI_ANY_SOURCE`: match any sender.
    Any,
}

impl SourceSel {
    /// Does this selector accept `src`?
    #[inline]
    pub fn matches(self, src: Rank) -> bool {
        match self {
            SourceSel::Rank(r) => r == src,
            SourceSel::Any => true,
        }
    }
}

impl From<Rank> for SourceSel {
    fn from(r: Rank) -> Self {
        SourceSel::Rank(r)
    }
}

/// Tag selector for receives and probes: a specific tag or `MPI_ANY_TAG`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TagSel {
    /// Match only this tag.
    Tag(Tag),
    /// `MPI_ANY_TAG`: match any tag.
    Any,
}

impl TagSel {
    /// Does this selector accept `tag`?
    #[inline]
    pub fn matches(self, tag: Tag) -> bool {
        match self {
            TagSel::Tag(t) => t == tag,
            TagSel::Any => true,
        }
    }
}

impl From<Tag> for TagSel {
    fn from(t: Tag) -> Self {
        TagSel::Tag(t)
    }
}

/// The result of a completed receive or probe: who sent, with what tag, and
/// how many bytes (the typed receive wrappers convert to element counts).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Status {
    /// Communicator-local rank of the sender.
    pub source: Rank,
    /// Tag of the matched message.
    pub tag: Tag,
    /// Payload length in bytes.
    pub len: usize,
}

impl Status {
    /// Number of elements of type `T` in the message.
    ///
    /// # Panics
    /// Panics if the byte length is not a multiple of `size_of::<T>()`.
    pub fn count<T>(&self) -> usize {
        let sz = std::mem::size_of::<T>();
        assert!(sz > 0, "count of zero-sized type");
        assert!(
            self.len.is_multiple_of(sz),
            "message length {} not a multiple of element size {}",
            self.len,
            sz
        );
        self.len / sz
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "from {} tag {} ({} bytes)",
            self.source, self.tag, self.len
        )
    }
}

/// The four MPI-1 send modes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SendMode {
    /// `MPI_Send`: completes when the buffer is reusable (we always copy at
    /// post time, so locally buffered).
    Standard,
    /// `MPI_Bsend`: completes immediately, draws on user-attached buffer
    /// space, errors on overflow.
    Buffered,
    /// `MPI_Ssend`: completes only once the matching receive has started.
    Synchronous,
    /// `MPI_Rsend`: the user asserts a matching receive is already posted,
    /// letting the implementation skip the rendezvous handshake entirely.
    Ready,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_selector_matching() {
        assert!(SourceSel::Any.matches(7));
        assert!(SourceSel::Rank(3).matches(3));
        assert!(!SourceSel::Rank(3).matches(4));
        assert_eq!(SourceSel::from(5), SourceSel::Rank(5));
    }

    #[test]
    fn tag_selector_matching() {
        assert!(TagSel::Any.matches(0));
        assert!(TagSel::Tag(9).matches(9));
        assert!(!TagSel::Tag(9).matches(10));
        assert_eq!(TagSel::from(2u32), TagSel::Tag(2));
    }

    #[test]
    fn status_count_converts_bytes_to_elements() {
        let st = Status {
            source: 1,
            tag: 2,
            len: 24,
        };
        assert_eq!(st.count::<f64>(), 3);
        assert_eq!(st.count::<u8>(), 24);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn status_count_rejects_misaligned() {
        let st = Status {
            source: 0,
            tag: 0,
            len: 10,
        };
        let _ = st.count::<f64>();
    }
}
