//! The breadth-first closure search every search in this directory runs.
//!
//! A [`Model`] names its states (the visited set's keys), the steps the
//! environment can take in one, and which steps are fault-free progress.
//! [`search`] explores every state reachable from boot within a depth and
//! a state budget, keeps the shortest witness of each violation a step
//! reported, and reports a wedge: an explored state from which no
//! fault-free progress reaches a good one. Std only.

use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A state space to search.
pub trait Model {
    /// A state: the visited set's key.
    type Key: Clone + Eq + Hash;
    /// One input from the environment.
    type Step: Copy + Debug;
    /// The violation a wedge is reported as.
    const WEDGE: &'static str;

    /// The state at boot.
    fn boot() -> Self::Key;

    /// The steps the environment can take in `key`.
    fn steps(key: &Self::Key) -> Vec<Self::Step>;

    /// Takes `step` in `key`: the next state, the properties the step
    /// violated, and the paths it reached, as bits.
    fn apply(key: &Self::Key, step: Self::Step) -> (Self::Key, Vec<&'static str>, u32);

    /// Whether `step` is fault-free progress.
    fn progress(step: &Self::Step) -> bool;

    /// Whether fault-free progress may stop in `key`.
    fn good(key: &Self::Key) -> bool;
}

/// FxHash: hashing the visited set's keys is most of a debug build's time
/// with the default hasher.
#[derive(Default)]
pub struct Fx(u64);

impl Hasher for Fx {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// The explored graph: every node's key, its BFS parent and the step from
/// it, and its fault-free successors once expanded; the greatest distance
/// from boot; what the steps reached; every violation found, with the
/// shortest input sequence that exhibits it.
pub struct Graph<M: Model> {
    pub keys: Vec<M::Key>,
    parent: Vec<Option<(usize, M::Step)>>,
    progress: Vec<Option<Vec<usize>>>,
    deepest: usize,
    ids: HashMap<M::Key, usize, BuildHasherDefault<Fx>>,
    pub reached: u32,
    pub violations: Vec<(&'static str, Vec<M::Step>)>,
    max_depth: usize,
    max_states: usize,
}

impl<M: Model> Graph<M> {
    fn node(&mut self, key: M::Key, parent: Option<(usize, M::Step)>) -> (usize, bool) {
        if let Some(&id) = self.ids.get(&key) {
            return (id, false);
        }
        let id = self.keys.len();
        self.ids.insert(key.clone(), id);
        self.keys.push(key);
        self.parent.push(parent);
        self.progress.push(None);
        (id, true)
    }

    /// Records `what`, found at node `id` or (`last`) by a step taken
    /// from it, unless a shorter witness of it is already recorded.
    fn report(&mut self, what: &'static str, id: usize, last: Option<M::Step>) {
        if self.violations.iter().any(|(w, _)| *w == what) {
            return;
        }
        let edges = std::iter::successors(self.parent[id], |&(p, _)| self.parent[p]);
        let mut steps: Vec<M::Step> = edges.map(|(_, step)| step).collect();
        steps.reverse();
        steps.extend(last);
        self.violations.push((what, steps));
    }

    /// Prints the graph's size and each violation's shortest witness, then
    /// asserts that there is none and that the space closed.
    pub fn assert_closed(&self, name: &str) {
        let deepest = self.deepest;
        println!(
            "{name}: {} states, every one within {deepest} inputs of boot, {} violations",
            self.keys.len(),
            self.violations.len()
        );
        for (what, path) in &self.violations {
            println!("  {what}, after {} inputs:", path.len());
            for step in path {
                println!("    {step:?}");
            }
        }
        assert!(
            self.violations.is_empty(),
            "{} violations",
            self.violations.len()
        );
        let (depth, states) = (self.max_depth, self.max_states);
        assert!(
            deepest < depth && self.keys.len() <= states,
            "the state space did not close within {depth} inputs and {states} states"
        );
    }
}

/// Searches `M` breadth-first from boot, expanding no node `max_depth`
/// inputs deep and none once `max_states` are known.
pub fn search<M: Model>(max_depth: usize, max_states: usize) -> Graph<M> {
    let mut g: Graph<M> = Graph {
        keys: Vec::new(),
        parent: Vec::new(),
        progress: Vec::new(),
        deepest: 0,
        ids: HashMap::default(),
        reached: 0,
        violations: Vec::new(),
        max_depth,
        max_states,
    };
    let (root, _) = g.node(M::boot(), None);
    let mut queue = VecDeque::from([(root, 0)]);
    while let Some((id, depth)) = queue.pop_front() {
        g.deepest = depth;
        if depth == max_depth || g.keys.len() > max_states {
            continue;
        }
        let key = g.keys[id].clone();
        let mut progress = Vec::new();
        for step in M::steps(&key) {
            let (next, found, reached) = M::apply(&key, step);
            g.reached |= reached;
            let (nid, new) = g.node(next, Some((id, step)));
            for what in found {
                g.report(what, id, Some(step));
            }
            if M::progress(&step) {
                progress.push(nid);
            }
            if new {
                queue.push_back((nid, depth + 1));
            }
        }
        g.progress[id] = Some(progress);
    }
    // No wedge: a good node is reachable along progress edges.
    let mut reaches_good: Vec<bool> = g.keys.iter().map(M::good).collect();
    loop {
        let mut changed = false;
        for id in 0..g.keys.len() {
            let next = g.progress[id].iter().flatten();
            if !reaches_good[id] && next.copied().any(|n| reaches_good[n]) {
                reaches_good[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let wedged = |id: &usize| g.progress[*id].is_some() && !reaches_good[*id];
    if let Some(id) = (0..g.keys.len()).find(wedged) {
        g.report(M::WEDGE, id, None);
    }
    g
}
