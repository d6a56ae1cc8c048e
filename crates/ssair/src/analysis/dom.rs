//! Dominator and post-dominator trees, computed with the
//! Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast Dominance
//! Algorithm"). Post-dominators are dominators of the reversed CFG rooted
//! at a virtual exit joining all `ret` blocks.

use super::cfg::Cfg;
use super::csr::Csr;
use crate::function::BlockId;

/// A (post-)dominator tree over basic blocks.
pub struct DomTree {
    /// Immediate dominator of each block (`None` for the root and for
    /// unreachable blocks). `VIRTUAL` denotes the virtual exit used by the
    /// post-dominator tree.
    idom: Vec<Option<u32>>,
    /// The tree's root: block 0 for dominators, `VIRTUAL` for
    /// post-dominators.
    root: u32,
    /// Entry and exit times of a depth-first walk of the tree, by node
    /// (the virtual exit is node `idom.len()`); `u32::MAX` for nodes
    /// outside the tree. `a` dominates `b` iff `a`'s interval encloses
    /// `b`'s, so a query costs O(1) however deep the tree is.
    enter: Vec<u32>,
    exit: Vec<u32>,
}

/// Node id of the virtual exit.
const VIRTUAL: u32 = u32::MAX;

impl DomTree {
    /// Builds the dominator tree of `cfg`.
    #[must_use]
    pub fn dominators(cfg: &Cfg) -> DomTree {
        // Order: reverse post-order from entry, nodes numbered by RPO index.
        let idom = compute_idoms(cfg.num_blocks(), 0, &cfg.rpo, |b| cfg.preds(b), &[]);
        DomTree::with_intervals(idom, 0)
    }

    /// Builds the post-dominator tree of `cfg`.
    #[must_use]
    pub fn post_dominators(cfg: &Cfg) -> DomTree {
        let n = cfg.num_blocks();
        // Compute a genuine reverse post-order of the *reversed* graph,
        // rooted at the virtual exit (DFS over forward predecessors from
        // every exit block). Blocks that cannot reach an exit are absent.
        let mut seen = vec![false; n];
        let mut order: Vec<BlockId> = Vec::new();
        let mut stack: Vec<(BlockId, usize)> = Vec::new();
        for &exit in &cfg.exits {
            if std::mem::replace(&mut seen[exit.0 as usize], true) {
                continue;
            }
            stack.push((exit, 0));
            while let Some(&mut (b, ref mut next)) = stack.last_mut() {
                let rsuccs = cfg.preds(b); // reversed-graph successors
                if *next < rsuccs.len() {
                    let s = rsuccs[*next];
                    *next += 1;
                    if !std::mem::replace(&mut seen[s.0 as usize], true) {
                        stack.push((s, 0));
                    }
                } else {
                    order.push(b);
                    stack.pop();
                }
            }
        }
        order.reverse();
        // Reverse-graph predecessors are forward successors; exits also have
        // the virtual root as a reverse-predecessor.
        let idom = compute_idoms(n, VIRTUAL, &order, |b| cfg.succs(b), &cfg.exits);
        DomTree::with_intervals(idom, VIRTUAL)
    }

    fn with_intervals(idom: Vec<Option<u32>>, root: u32) -> DomTree {
        let n = idom.len();
        let node = |b: u32| if b == VIRTUAL { n } else { b as usize };
        // Children in ascending block order.
        let children = Csr::from_pairs(n + 1, 0, || {
            idom.iter()
                .enumerate()
                .filter_map(|(b, p)| p.map(|p| (node(p), b as u32)))
        });
        let mut enter = vec![u32::MAX; n + 1];
        let mut exit = vec![u32::MAX; n + 1];
        let mut clock = 0u32;
        enter[node(root)] = clock;
        let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            clock += 1;
            match children.row(node(b)).get(*next) {
                Some(&c) => {
                    *next += 1;
                    enter[node(c)] = clock;
                    stack.push((c, 0));
                }
                None => {
                    exit[node(b)] = clock;
                    stack.pop();
                }
            }
        }
        DomTree {
            idom,
            root,
            enter,
            exit,
        }
    }

    /// `true` iff `a` (post-)dominates `b`. Reflexive; `false` when either
    /// block is unreachable in the relevant direction.
    #[must_use]
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return self.is_processed(b);
        }
        let time = |times: &[u32], b: BlockId| {
            let node = if b.0 == VIRTUAL {
                self.idom.len()
            } else {
                b.0 as usize
            };
            times.get(node).copied().unwrap_or(u32::MAX)
        };
        let (ea, eb) = (time(&self.enter, a), time(&self.enter, b));
        ea != u32::MAX && eb != u32::MAX && ea <= eb && time(&self.exit, b) <= time(&self.exit, a)
    }

    /// The immediate dominator of `b`, or `None` for the root, the virtual
    /// exit's children, or unprocessed blocks.
    #[must_use]
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.idom_raw(b.0) {
            Some(VIRTUAL) | None => None,
            Some(p) => Some(BlockId(p)),
        }
    }

    fn idom_raw(&self, b: u32) -> Option<u32> {
        if b == VIRTUAL {
            return None;
        }
        self.idom[b as usize]
    }

    fn is_processed(&self, b: BlockId) -> bool {
        b.0 == self.root || self.idom[b.0 as usize].is_some()
    }
}

/// Cooper–Harvey–Kennedy fixed-point over `order` (must be a reverse
/// post-order of the graph whose predecessors are `preds`, plus the
/// virtual root for each block of `root_preds`).
fn compute_idoms<'c>(
    n: usize,
    root: u32,
    order: &[BlockId],
    preds: impl Fn(BlockId) -> &'c [BlockId],
    root_preds: &[BlockId],
) -> Vec<Option<u32>> {
    let mut idom: Vec<Option<u32>> = vec![None; n];
    let mut rpo_num = vec![usize::MAX; n + 1];
    let num_of = |b: u32, rpo_num: &[usize]| -> usize {
        if b == VIRTUAL {
            0
        } else {
            rpo_num[b as usize]
        }
    };
    for (i, &b) in order.iter().enumerate() {
        rpo_num[b.0 as usize] = i + 1; // virtual root gets number 0
    }
    let get_idom = |idom: &[Option<u32>], b: u32| -> Option<u32> {
        if b == VIRTUAL {
            Some(VIRTUAL) // root is its own dominator for intersection
        } else {
            idom[b as usize]
        }
    };
    // The root dominates itself.
    if root != VIRTUAL {
        idom[root as usize] = Some(root);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &b in order {
            if b.0 == root {
                continue;
            }
            let virtual_pred = root_preds.contains(&b).then_some(VIRTUAL);
            let mut new_idom: Option<u32> = None;
            for p in preds(b).iter().map(|p| p.0).chain(virtual_pred) {
                if get_idom(&idom, p).is_none() {
                    continue; // unprocessed predecessor
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(cur, p, &idom, &|x| num_of(x, &rpo_num)),
                });
            }
            if let Some(ni) = new_idom {
                if idom[b.0 as usize] != Some(ni) {
                    idom[b.0 as usize] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    // Normalize: the root's idom is None externally.
    if root != VIRTUAL {
        idom[root as usize] = None;
    }
    idom
}

fn intersect(mut a: u32, mut b: u32, idom: &[Option<u32>], num: &dyn Fn(u32) -> usize) -> u32 {
    while a != b {
        while num(a) > num(b) {
            a = if a == VIRTUAL {
                a
            } else {
                idom[a as usize].expect("processed")
            };
        }
        while num(b) > num(a) {
            b = if b == VIRTUAL {
                b
            } else {
                idom[b as usize].expect("processed")
            };
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_function_text;

    const DIAMOND: &str = r#"
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
"#;

    #[test]
    fn diamond_dominators() {
        let f = parse_function_text(DIAMOND).unwrap();
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&cfg);
        let (entry, t, e, join) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        let _ = e;
        assert!(dom.dominates(entry, join));
        assert!(dom.dominates(entry, t));
        assert!(!dom.dominates(t, join), "join reachable via e");
        assert!(dom.dominates(join, join), "reflexive");
        assert_eq!(dom.idom(join), Some(entry));
        assert_eq!(dom.idom(t), Some(entry));
        assert_eq!(dom.idom(entry), None);
    }

    #[test]
    fn diamond_post_dominators() {
        let f = parse_function_text(DIAMOND).unwrap();
        let cfg = Cfg::new(&f);
        let pdom = DomTree::post_dominators(&cfg);
        let (entry, t, e, join) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        assert!(pdom.dominates(join, entry));
        assert!(pdom.dominates(join, t));
        assert!(pdom.dominates(join, e));
        assert!(!pdom.dominates(t, entry), "t is bypassable");
        assert_eq!(pdom.idom(entry), Some(join));
    }

    #[test]
    fn loop_dominators() {
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
        let dom = DomTree::dominators(&cfg);
        let pdom = DomTree::post_dominators(&cfg);
        let (entry, header, body, exit) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        assert!(dom.dominates(header, body));
        assert!(dom.dominates(header, exit));
        assert!(!dom.dominates(body, exit));
        assert!(pdom.dominates(header, body), "body always re-enters header");
        assert!(pdom.dominates(exit, header));
        assert!(pdom.dominates(exit, entry));
        assert!(!pdom.dominates(body, header), "loop can be skipped");
    }

    #[test]
    fn multi_exit_post_dominators() {
        let f = parse_function_text(
            r#"
define i32 @m(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  ret i32 1
b:
  ret i32 2
}
"#,
        )
        .unwrap();
        let cfg = Cfg::new(&f);
        let pdom = DomTree::post_dominators(&cfg);
        let (entry, a, b) = (BlockId(0), BlockId(1), BlockId(2));
        let _ = entry;
        assert!(!pdom.dominates(a, entry));
        assert!(!pdom.dominates(b, entry));
        assert!(pdom.dominates(a, a));
        assert_eq!(pdom.idom(entry), None, "idom of entry is the virtual exit");
    }
}
