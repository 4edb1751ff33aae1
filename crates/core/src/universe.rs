//! The joint value universe of two instances under comparison.
//!
//! Value mappings `h_l`/`h_r` (paper Def. 4.1) act on `adom(I)` and
//! `adom(I')`. The canonical optimal mappings are represented by a partition
//! of the joint universe (see [`crate::unionfind`]); the [`Universe`] assigns
//! a dense node index to every value so the partition can live in flat
//! arrays.
//!
//! Constants are *shared* nodes: since every value mapping is the identity on
//! constants, the left and right occurrences of a constant necessarily have
//! the same image and can be one node. Labeled nulls get one node per side of
//! occurrence (the paper assumes `Vars(I) ∩ Vars(I') = ∅`; if the same null
//! id appears on both sides — e.g. when comparing an instance with itself —
//! the two sides are still tracked as distinct nodes, which implements the
//! implicit renaming the paper allows).

use ic_model::{FxHashMap, Instance, NullId, Sym, Value};
use std::collections::hash_map::Entry;

/// Which of the two compared instances a value/tuple belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The left instance `I`.
    Left,
    /// The right instance `I'`.
    Right,
}

impl Side {
    /// The opposite side.
    pub fn flip(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// Dense index of a value node in the joint universe.
pub type NodeId = u32;

/// What a node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A constant; flags record on which sides it occurs (needed by the ⊓
    /// non-injectivity measure, which counts same-side values only).
    Const {
        /// The constant symbol.
        sym: Sym,
        /// Whether the constant occurs in the left instance.
        in_left: bool,
        /// Whether the constant occurs in the right instance.
        in_right: bool,
    },
    /// A labeled null of one side.
    Null {
        /// The null identifier.
        null: NullId,
        /// The side the occurrence belongs to.
        side: Side,
    },
}

/// Dense node index over `adom(I) ⊎ adom(I')` with shared constant nodes.
#[derive(Debug, Clone, Default)]
pub struct Universe {
    consts: FxHashMap<Sym, NodeId>,
    left_nulls: FxHashMap<NullId, NodeId>,
    right_nulls: FxHashMap<NullId, NodeId>,
    kinds: Vec<NodeKind>,
    /// Each side's distinct values with their node, in first-occurrence
    /// order of the instance's `iter_all` walk.
    left_values: Vec<(Value, NodeId)>,
    right_values: Vec<(Value, NodeId)>,
}

impl Universe {
    /// Builds the universe of two instances.
    pub fn build(left: &Instance, right: &Instance) -> Self {
        let mut u = Universe::default();
        for (_, t) in left.iter_all() {
            for &v in t.values() {
                u.add(Side::Left, v);
            }
        }
        for (_, t) in right.iter_all() {
            for &v in t.values() {
                u.add(Side::Right, v);
            }
        }
        u
    }

    fn add(&mut self, side: Side, v: Value) {
        let first_on_side = match v {
            Value::Const(sym) => {
                let id = *self.consts.entry(sym).or_insert_with(|| {
                    let id = self.kinds.len() as NodeId;
                    self.kinds.push(NodeKind::Const {
                        sym,
                        in_left: false,
                        in_right: false,
                    });
                    id
                });
                let NodeKind::Const {
                    in_left, in_right, ..
                } = &mut self.kinds[id as usize]
                else {
                    unreachable!("constant symbols map to constant nodes");
                };
                let flag = match side {
                    Side::Left => in_left,
                    Side::Right => in_right,
                };
                (!std::mem::replace(flag, true)).then_some(id)
            }
            Value::Null(null) => {
                let map = match side {
                    Side::Left => &mut self.left_nulls,
                    Side::Right => &mut self.right_nulls,
                };
                match map.entry(null) {
                    Entry::Vacant(e) => {
                        let id = self.kinds.len() as NodeId;
                        self.kinds.push(NodeKind::Null { null, side });
                        e.insert(id);
                        Some(id)
                    }
                    Entry::Occupied(_) => None,
                }
            }
        };
        if let Some(id) = first_on_side {
            match side {
                Side::Left => self.left_values.push((v, id)),
                Side::Right => self.right_values.push((v, id)),
            }
        }
    }

    /// The distinct values occurring on `side` with their nodes, in the
    /// order [`Universe::build`] first met them (the instance's `iter_all`
    /// cell order).
    pub fn values(&self, side: Side) -> &[(Value, NodeId)] {
        match side {
            Side::Left => &self.left_values,
            Side::Right => &self.right_values,
        }
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The node of value `v` occurring on `side`.
    ///
    /// # Panics
    /// Panics if `v` does not occur on that side (universe was built from
    /// the instances, so every instance value resolves).
    #[inline]
    pub fn node(&self, side: Side, v: Value) -> NodeId {
        self.try_node(side, v)
            .expect("value does not occur in the universe on this side")
    }

    /// The node of value `v` on `side`, or `None` if it does not occur.
    /// Constants resolve regardless of side flags (they are shared nodes).
    #[inline]
    pub fn try_node(&self, side: Side, v: Value) -> Option<NodeId> {
        match v {
            Value::Const(sym) => self.consts.get(&sym).copied(),
            Value::Null(null) => match side {
                Side::Left => self.left_nulls.get(&null).copied(),
                Side::Right => self.right_nulls.get(&null).copied(),
            },
        }
    }

    /// The kind of node `n`.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n as usize]
    }

    /// Whether node `n` is a constant node.
    #[inline]
    pub fn is_const(&self, n: NodeId) -> bool {
        matches!(self.kinds[n as usize], NodeKind::Const { .. })
    }

    /// Iterates over all node kinds with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeKind)> + '_ {
        self.kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| (i as NodeId, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::{Catalog, Schema};

    fn two_instances() -> (Catalog, Instance, Instance) {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = cat.schema().rel("R").unwrap();
        let mut left = Instance::new("I", &cat);
        let mut right = Instance::new("J", &cat);
        let a = cat.konst("a");
        let b = cat.konst("b");
        let n1 = cat.fresh_null();
        let n2 = cat.fresh_null();
        left.insert(rel, vec![a, n1]);
        right.insert(rel, vec![a, n2]);
        right.insert(rel, vec![b, b]);
        (cat, left, right)
    }

    #[test]
    fn shared_constant_nodes() {
        let (mut cat, left, right) = two_instances();
        let u = Universe::build(&left, &right);
        let a = cat.konst("a");
        assert_eq!(u.node(Side::Left, a), u.node(Side::Right, a));
        match u.kind(u.node(Side::Left, a)) {
            NodeKind::Const {
                in_left, in_right, ..
            } => {
                assert!(in_left && in_right);
            }
            _ => panic!("expected const"),
        }
    }

    #[test]
    fn one_sided_constant_flags() {
        let (mut cat, left, right) = two_instances();
        let u = Universe::build(&left, &right);
        let b = cat.konst("b");
        match u.kind(u.node(Side::Right, b)) {
            NodeKind::Const {
                in_left, in_right, ..
            } => {
                assert!(!in_left && in_right);
            }
            _ => panic!("expected const"),
        }
    }

    #[test]
    fn nulls_are_per_side() {
        let (_cat, left, right) = two_instances();
        let u = Universe::build(&left, &right);
        let ln = left.vars().into_iter().next().unwrap();
        let rn = right.vars().into_iter().next().unwrap();
        let lnode = u.node(Side::Left, Value::Null(ln));
        let rnode = u.node(Side::Right, Value::Null(rn));
        assert_ne!(lnode, rnode);
        assert_eq!(u.try_node(Side::Right, Value::Null(ln)), None);
        assert_eq!(u.try_node(Side::Left, Value::Null(rn)), None);
    }

    #[test]
    fn same_null_on_both_sides_gets_two_nodes() {
        // Comparing an instance with itself: the shared null must become two
        // distinct nodes (implicit renaming).
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = cat.schema().rel("R").unwrap();
        let n = cat.fresh_null();
        let mut inst = Instance::new("I", &cat);
        inst.insert(rel, vec![n]);
        let u = Universe::build(&inst, &inst);
        assert_eq!(u.len(), 2);
        assert_ne!(u.node(Side::Left, n), u.node(Side::Right, n));
    }

    #[test]
    fn try_node_misses_unknown_values() {
        let (mut cat, left, right) = two_instances();
        let u = Universe::build(&left, &right);
        let ghost = cat.konst("never-in-any-instance");
        assert_eq!(u.try_node(Side::Left, ghost), None);
        assert_eq!(u.try_node(Side::Right, ghost), None);
    }

    #[test]
    fn node_count() {
        let (_cat, left, right) = two_instances();
        // consts: a, b (shared) + nulls: n1 (left), n2 (right) = 4 nodes.
        let u = Universe::build(&left, &right);
        assert_eq!(u.len(), 4);
        assert!(!u.is_empty());
        assert_eq!(u.iter().count(), 4);
    }
}
