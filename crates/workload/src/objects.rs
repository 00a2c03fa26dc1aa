//! Identifiers for shared data objects.

/// Index of a shared data object in `0..|X|`.
///
/// Objects are the unit of placement: global variables of a parallel
/// program, pages or cache lines of a virtual shared memory, or WWW pages
/// (paper, Section 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The object index as a `usize`, for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for ObjectId {
    #[inline]
    fn from(v: u32) -> Self {
        ObjectId(v)
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(ObjectId(3).to_string(), "x3");
        assert_eq!(ObjectId(3).index(), 3);
        assert_eq!(ObjectId::from(3u32), ObjectId(3));
    }
}
