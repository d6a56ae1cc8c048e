//! Placement tables: which block an instruction lives in and at what
//! position. Computed once so that dominance and flow queries are O(1).

use crate::function::{BlockId, Function, ValueId};

/// Instruction placement lookup, dense by value id.
pub struct Layout {
    block_of: Vec<Option<BlockId>>,
    position: Vec<usize>,
}

impl Layout {
    /// Builds the placement tables for `f`.
    #[must_use]
    pub fn new(f: &Function) -> Layout {
        let mut block_of = vec![None; f.num_values()];
        let mut position = vec![0; f.num_values()];
        for b in f.block_ids() {
            for (pos, &v) in f.block(b).instrs.iter().enumerate() {
                block_of[v.0 as usize] = Some(b);
                position[v.0 as usize] = pos;
            }
        }
        Layout { block_of, position }
    }

    /// The block containing instruction `v`, or `None` for non-instructions
    /// (and for values created after the layout was built).
    #[must_use]
    pub fn block_of(&self, v: ValueId) -> Option<BlockId> {
        self.block_of.get(v.0 as usize).copied().flatten()
    }

    /// Position of `v` within its block (0 = first). Panics on
    /// non-instructions; call [`Layout::block_of`] first.
    #[must_use]
    pub fn position(&self, v: ValueId) -> usize {
        assert!(self.block_of(v).is_some(), "{v} is not placed");
        self.position[v.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_function_text;

    #[test]
    fn placement_matches_block_contents() {
        let f = parse_function_text(
            "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, 1\n  %y = add i32 %x, 2\n  ret i32 %y\n}\n",
        )
        .unwrap();
        let l = Layout::new(&f);
        let entry = crate::BlockId(0);
        let x = f.block(entry).instrs[0];
        let y = f.block(entry).instrs[1];
        assert_eq!(l.block_of(x), Some(entry));
        assert_eq!(l.position(x), 0);
        assert_eq!(l.position(y), 1);
        // Arguments and constants have no placement.
        assert_eq!(l.block_of(f.params[0]), None);
    }
}
