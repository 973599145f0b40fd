//! Exact maximum-flow substrate (Dinic's algorithm), generic over the
//! capacity type.
//!
//! The offline feasibility test for preemptive migratory scheduling on `m`
//! machines is a max-flow problem on the bipartite job/event-interval network
//! (see `mm-opt`). Because `machmin` instances carry exact rational time
//! coordinates — with adversarially large denominators — the one network,
//! [`ArenaNetwork`], is generic over a [`FlowNum`] capacity type. `mm-opt`
//! instantiates it with `i128` ticks on an instance's integer time grid and
//! falls back to [`mm_numeric::Rat`] when the grid overflows.
//!
//! Dinic's phase count is `O(V)` independent of capacity magnitudes, so exact
//! rational capacities terminate and stay exact.
//!
//! # Example
//!
//! ```
//! use mm_flow::ArenaNetwork;
//!
//! let mut net = ArenaNetwork::<u64>::new(4);
//! let s = 0; let t = 3;
//! net.add_edge(s, 1, 3);
//! net.add_edge(s, 2, 2);
//! net.add_edge(1, 3, 2);
//! net.add_edge(2, 3, 3);
//! let cross = net.add_edge(1, 2, 5);
//! assert_eq!(net.max_flow(s, t), 5);
//! assert_eq!(net.flow(cross), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;

use mm_numeric::Rat;

pub use arena::ArenaNetwork;

/// Capacity/flow numeric type for [`ArenaNetwork`].
pub trait FlowNum: Clone + Ord {
    /// Additive identity.
    fn zero() -> Self;
    /// `self + other`.
    fn add(&self, other: &Self) -> Self;
    /// `self − other` (callers guarantee non-negative results).
    fn sub(&self, other: &Self) -> Self;
    /// Whether the value is zero.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }
}

impl FlowNum for u64 {
    fn zero() -> Self {
        0
    }
    fn add(&self, other: &Self) -> Self {
        self.checked_add(*other).expect("u64 flow overflow")
    }
    fn sub(&self, other: &Self) -> Self {
        self.checked_sub(*other).expect("u64 flow underflow")
    }
}

impl FlowNum for i128 {
    fn zero() -> Self {
        0
    }
    fn add(&self, other: &Self) -> Self {
        self.checked_add(*other).expect("i128 flow overflow")
    }
    fn sub(&self, other: &Self) -> Self {
        self.checked_sub(*other).expect("i128 flow underflow")
    }
}

impl FlowNum for Rat {
    fn zero() -> Self {
        Rat::zero()
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn sub(&self, other: &Self) -> Self {
        self - other
    }
}

/// Handle to an edge added with [`ArenaNetwork::add_edge`]; lets callers
/// read back the flow on that edge after [`ArenaNetwork::max_flow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeHandle(usize);
