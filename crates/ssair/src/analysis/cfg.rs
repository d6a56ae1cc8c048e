//! Block-level control-flow graph with predecessor lists and a reverse
//! post-order, the substrate for dominator computation.

use super::csr::Csr;
use crate::function::{BlockId, Function};

/// The control-flow graph of one function. Edges are stored flat: one
/// offset array and one edge array per direction.
#[derive(Debug, PartialEq, Eq)]
pub struct Cfg {
    /// Successors of each block, in terminator target order.
    succs: Csr<BlockId>,
    /// Predecessors of each block, in block order; a block branching to
    /// the same target twice is listed twice.
    preds: Csr<BlockId>,
    /// Blocks in reverse post-order from the entry (unreachable blocks are
    /// absent).
    pub rpo: Vec<BlockId>,
    /// `rpo_index[b] = position of b in rpo`, or `usize::MAX` if
    /// unreachable.
    pub rpo_index: Vec<usize>,
    /// Exit blocks (terminated by `ret`).
    pub exits: Vec<BlockId>,
}

impl Cfg {
    /// Builds the CFG of `f`.
    #[must_use]
    pub fn new(f: &Function) -> Cfg {
        let n = f.num_blocks();
        let succs = Csr::from_rows(f.block_ids().map(|b| f.successors(b)));
        let preds = Csr::from_pairs(n, BlockId(0), || {
            f.block_ids().flat_map(|b| {
                succs
                    .row(b.0 as usize)
                    .iter()
                    .map(move |s| (s.0 as usize, b))
            })
        });
        let exits = f
            .block_ids()
            .filter(|&b| succs.row(b.0 as usize).is_empty() && f.terminator(b).is_some())
            .collect();
        // Iterative post-order DFS from entry; `rpo_index` marks visited
        // blocks with 0 until the final numbering.
        let mut rpo_index = vec![usize::MAX; n];
        let mut rpo = Vec::with_capacity(n);
        if n > 0 {
            let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
            rpo_index[0] = 0;
            while let Some(&mut (b, ref mut next)) = stack.last_mut() {
                let bs = succs.row(b.0 as usize);
                if *next < bs.len() {
                    let s = bs[*next];
                    *next += 1;
                    if rpo_index[s.0 as usize] == usize::MAX {
                        rpo_index[s.0 as usize] = 0;
                        stack.push((s, 0));
                    }
                } else {
                    rpo.push(b);
                    stack.pop();
                }
            }
        }
        rpo.reverse();
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.0 as usize] = i;
        }
        Cfg {
            succs,
            preds,
            rpo,
            rpo_index,
            exits,
        }
    }

    /// The number of blocks, reachable or not.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.succs.rows()
    }

    /// Predecessor blocks of `b`, in block order (duplicates kept).
    #[must_use]
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        self.preds.row(b.0 as usize)
    }

    /// Successor blocks of `b`, in terminator target order.
    #[must_use]
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        self.succs.row(b.0 as usize)
    }

    /// `true` if `b` is reachable from the entry block.
    #[must_use]
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.0 as usize] != usize::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_function_text;

    #[test]
    fn diamond_cfg() {
        let f = parse_function_text(
            r#"
define i32 @d(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %join
e:
  br label %join
join:
  ret i32 0
}
"#,
        )
        .unwrap();
        let cfg = Cfg::new(&f);
        let (entry, t, e, join) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        assert_eq!(cfg.succs(entry), &[t, e]);
        assert_eq!(cfg.preds(join), &[t, e]);
        assert_eq!(cfg.exits, vec![join]);
        assert_eq!(cfg.rpo[0], entry);
        assert_eq!(*cfg.rpo.last().unwrap(), join);
        assert!(cfg.is_reachable(join));
    }

    #[test]
    fn rpo_visits_loop_header_before_body() {
        let f = parse_function_text(
            r#"
define void @l(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %j, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %j = add i64 %i, 1
  br label %header
exit:
  ret void
}
"#,
        )
        .unwrap();
        let cfg = Cfg::new(&f);
        let header = BlockId(1);
        let body = BlockId(2);
        assert!(
            cfg.rpo_index[header.0 as usize] < cfg.rpo_index[body.0 as usize],
            "header precedes body in RPO"
        );
    }
}
