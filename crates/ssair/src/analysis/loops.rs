//! Natural loop detection from back edges of the dominator tree.
//!
//! Used by the frontend optimizer (LICM with store promotion) and by the
//! `baselines` crate's polyhedral detector. The IDL path does *not* consume
//! this analysis — loops are recognised there by the `For` idiom written in
//! IDL itself, as in the paper.

use super::cfg::Cfg;
use super::dom::DomTree;
use crate::function::BlockId;

/// One natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header (dominates all blocks of the loop).
    pub header: BlockId,
    /// Latch blocks (sources of back edges to the header).
    pub latches: Vec<BlockId>,
    /// All blocks in the loop, header first.
    pub blocks: Vec<BlockId>,
    /// Index of the enclosing loop in [`LoopForest::loops`], if nested.
    pub parent: Option<usize>,
    /// Nesting depth (outermost = 1).
    pub depth: usize,
}

impl Loop {
    /// `true` if `b` belongs to this loop.
    #[must_use]
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// All natural loops of a function.
pub struct LoopForest {
    /// The loops, outer loops before their nested loops.
    pub loops: Vec<Loop>,
}

impl LoopForest {
    /// Detects the natural loops of `cfg` using `dom`.
    #[must_use]
    pub fn new(cfg: &Cfg, dom: &DomTree) -> LoopForest {
        super::count_build(|c| c.loop_forests += 1);
        // Per-block scratch, reused by each step below; `NONE` is unset.
        const NONE: usize = usize::MAX;
        let mut slot = vec![NONE; cfg.num_blocks()];
        // Find back edges: latch -> header where header dominates latch.
        // `slot` maps a header to its index in `headers`.
        let mut headers: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for &b in &cfg.rpo {
            for &s in cfg.succs(b) {
                if dom.dominates(s, b) {
                    let k = &mut slot[s.0 as usize];
                    if *k == NONE {
                        *k = headers.len();
                        headers.push((s, Vec::new()));
                    }
                    headers[*k].1.push(b);
                }
            }
        }
        // Natural loop body: header plus all blocks that reach a latch
        // without going through the header. `slot[b] == k` marks `b` as
        // in the body of loop `k` (the loops are built in `headers`
        // order).
        let mut loops: Vec<Loop> = Vec::new();
        for (k, (header, latches)) in headers.into_iter().enumerate() {
            let mut blocks = vec![header];
            slot[header.0 as usize] = k;
            let mut stack = latches.clone();
            while let Some(b) = stack.pop() {
                if std::mem::replace(&mut slot[b.0 as usize], k) != k {
                    blocks.push(b);
                    stack.extend(cfg.preds(b).iter().filter(|&&p| p != header));
                }
            }
            loops.push(Loop {
                header,
                latches,
                blocks,
                parent: None,
                depth: 1,
            });
        }
        // Sort outer-first by body size (an outer loop strictly contains its
        // nested loops' blocks) and link parents: `slot[b]` becomes the
        // smallest loop so far that contains `b`, since later loops are no
        // larger.
        loops.sort_by_key(|l| std::cmp::Reverse(l.blocks.len()));
        slot.fill(NONE);
        for i in 0..loops.len() {
            let parent = Some(slot[loops[i].header.0 as usize]).filter(|&p| p != NONE);
            loops[i].parent = parent;
            loops[i].depth = parent.map_or(1, |p| loops[p].depth + 1);
            for &b in &loops[i].blocks {
                slot[b.0 as usize] = i;
            }
        }
        LoopForest { loops }
    }

    /// The innermost loop containing `b`, if any.
    #[must_use]
    pub fn innermost_containing(&self, b: BlockId) -> Option<&Loop> {
        self.loops
            .iter()
            .filter(|l| l.contains(b))
            .max_by_key(|l| l.depth)
    }

    /// The loop headed exactly at `h`, if any.
    #[must_use]
    pub fn loop_with_header(&self, h: BlockId) -> Option<&Loop> {
        self.loops.iter().find(|l| l.header == h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyses;
    use crate::parser::parse_function_text;

    #[test]
    fn detects_a_simple_loop() {
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
        let a = Analyses::new(&f);
        assert_eq!(a.loops.loops.len(), 1);
        let l = &a.loops.loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.latches, vec![BlockId(2)]);
        assert!(l.contains(BlockId(1)) && l.contains(BlockId(2)));
        assert!(!l.contains(BlockId(0)) && !l.contains(BlockId(3)));
        assert_eq!(l.depth, 1);
    }

    #[test]
    fn detects_nesting_depth() {
        let f = parse_function_text(
            r#"
define void @nest(i64 %n) {
entry:
  br label %oh
oh:
  %i = phi i64 [ 0, %entry ], [ %i2, %ol ]
  %oc = icmp slt i64 %i, %n
  br i1 %oc, label %ih0, label %done
ih0:
  br label %ih
ih:
  %j = phi i64 [ 0, %ih0 ], [ %j2, %il ]
  %ic = icmp slt i64 %j, %n
  br i1 %ic, label %il, label %ol
il:
  %j2 = add i64 %j, 1
  br label %ih
ol:
  %i2 = add i64 %i, 1
  br label %oh
done:
  ret void
}
"#,
        )
        .unwrap();
        let a = Analyses::new(&f);
        assert_eq!(a.loops.loops.len(), 2);
        let outer = a.loops.loop_with_header(BlockId(1)).unwrap();
        let inner = a.loops.loop_with_header(BlockId(3)).unwrap();
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert!(outer.contains(inner.header));
        let innermost = a.loops.innermost_containing(BlockId(4)).unwrap();
        assert_eq!(innermost.header, BlockId(3));
    }
}
