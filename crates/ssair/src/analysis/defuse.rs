//! Def-use chains: for every value, the instructions that use it as an
//! operand. This is the data-flow edge relation of the IDL atomic
//! `{a} has data flow to {b}`.

use super::csr::Csr;
use crate::function::{Function, ValueId};

/// Def-use chains for one function: one row of users per value id.
pub struct DefUse {
    users: Csr<ValueId>,
}

impl DefUse {
    /// Builds the chains for `f`. Only instructions currently placed in a
    /// block count as users (retired arena slots are ignored).
    #[must_use]
    pub fn new(f: &Function) -> DefUse {
        let users = Csr::from_pairs(f.num_values(), ValueId(0), || {
            f.block_ids()
                .flat_map(|b| f.block(b).instrs.iter())
                .filter_map(|&v| f.instr(v).map(|i| (v, &i.operands)))
                .flat_map(|(v, ops)| {
                    // An instruction using a value twice is one user.
                    ops.iter()
                        .enumerate()
                        .filter(|&(k, op)| !ops[..k].contains(op))
                        .map(move |(_, op)| (op.0 as usize, v))
                })
        });
        DefUse { users }
    }

    /// The instructions using `v` as an operand (deduplicated, in block
    /// then instruction order).
    #[must_use]
    pub fn users(&self, v: ValueId) -> &[ValueId] {
        let r = v.0 as usize;
        if r < self.users.rows() {
            self.users.row(r)
        } else {
            &[]
        }
    }

    /// `true` if no instruction uses `v` (the IDL atomic `is unused`).
    #[must_use]
    pub fn is_unused(&self, v: ValueId) -> bool {
        self.users(v).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_function_text;

    #[test]
    fn users_are_tracked_and_deduplicated() {
        let f = parse_function_text(
            "define i32 @f(i32 %a) {\nentry:\n  %sq = mul i32 %a, %a\n  %dead = add i32 %a, 1\n  ret i32 %sq\n}\n",
        )
        .unwrap();
        let du = DefUse::new(&f);
        let a = f.params[0];
        let entry = crate::BlockId(0);
        let sq = f.block(entry).instrs[0];
        let dead = f.block(entry).instrs[1];
        assert_eq!(du.users(a), &[sq, dead], "a used by mul (once) and add");
        assert!(du.is_unused(dead));
        assert!(!du.is_unused(sq), "sq is returned");
    }
}
