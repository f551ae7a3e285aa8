//! Machine-speed reference for the bounded end-to-end metrics.
//!
//! The benchmark runs on shared hosts whose speed changes by a third or
//! more from one second to the next, far more than any bound worth
//! holding a change to. So a fixed unit of work that never touches the
//! program is timed right next to every measurement: it tokenises a fixed
//! text into a hash map of positions and sorts the terms, the allocation,
//! hashing and sorting the program's own layers are made of. The unit's
//! time there, divided by [`REFERENCE_UNIT_US`], is the machine's
//! slowdown at that moment against the reference machine. A steady figure
//! is a wall figure with its own moment's slowdown taken out: times are
//! divided by it, rates multiplied.
//!
//! Timed steps and closed-loop blocks are bracketed by bursts of units;
//! the open loops fill their waits for the next due request with units.
//! The text is the same for every seed, so the slowdown measures only the
//! machine, and a change to the program moves a steady figure as it moves
//! the wall figure. The correction is least exact for work bound by
//! memory latency, which the host's slower state slows less than it
//! slows this unit (see README.md).

use crate::spans::span;
use crate::stats::{median, Rng};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median unit time on the reference machine (a 2-vCPU Intel Xeon VM at
/// 2.1 GHz, in its faster state), µs.
pub const REFERENCE_UNIT_US: f64 = 75.0;

/// Units in a burst either side of a timed step or block.
const BURST: usize = 8;
/// Most units run in one open-loop wait.
const PER_WAIT: usize = 2;
/// Width of the open loop's slowdown windows.
const WINDOW: Duration = Duration::from_millis(10);

const WORDS: usize = 500;
const VOCABULARY: usize = 300;

pub struct Speed {
    text: String,
    origin: Instant,
    /// Units timed in open-loop waits, by [`WINDOW`]: their times, µs.
    windows: BTreeMap<u64, Vec<f64>>,
    /// Slowdown by window, once asked for.
    at_window: HashMap<u64, f64>,
    /// Every bracket's slowdown and every window's, for the report.
    slowdowns: Vec<f64>,
}

/// Seconds of one or more steps, each timed between two bursts.
#[derive(Clone, Copy, Default)]
pub struct Sample {
    pub wall_s: f64,
    /// Wall seconds with each step's slowdown taken out.
    pub steady_s: f64,
}

impl std::ops::AddAssign for Sample {
    fn add_assign(&mut self, other: Sample) {
        self.wall_s += other.wall_s;
        self.steady_s += other.steady_s;
    }
}

impl Default for Speed {
    fn default() -> Speed {
        let mut rng = Rng::new(0xCA11_B8A7);
        let vocabulary: Vec<String> = (0..VOCABULARY)
            .map(|_| {
                let len = 3 + rng.below(8);
                (0..len)
                    .map(|_| char::from(b'a' + rng.below(26) as u8))
                    .collect()
            })
            .collect();
        let words: Vec<&str> = (0..WORDS).map(|_| rng.pick(&vocabulary).as_str()).collect();
        Speed {
            text: words.join(" ").to_uppercase(),
            origin: Instant::now(),
            windows: BTreeMap::new(),
            at_window: HashMap::new(),
            slowdowns: Vec::new(),
        }
    }
}

impl Speed {
    /// Times one unit, µs.
    fn unit_us(&self) -> f64 {
        let t = Instant::now();
        let mut postings: HashMap<String, Vec<u32>> = HashMap::new();
        for (pos, word) in self.text.split_whitespace().enumerate() {
            postings
                .entry(word.to_ascii_lowercase())
                .or_default()
                .push(pos as u32);
        }
        let mut terms: Vec<(&String, &Vec<u32>)> = postings.iter().collect();
        terms.sort();
        black_box(&terms);
        t.elapsed().as_secs_f64() * 1e6
    }

    /// The slowdown now: a burst's median unit ÷ the reference's.
    fn burst(&self) -> f64 {
        let _s = span("loadgen.calib");
        let units: Vec<f64> = (0..BURST).map(|_| self.unit_us()).collect();
        median(&units) / REFERENCE_UNIT_US
    }

    /// Runs `f` between two bursts; the slowdown is their mean.
    pub fn bracket<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        let before = self.burst();
        let t = Instant::now();
        let value = f();
        let wall_s = t.elapsed().as_secs_f64();
        let slowdown = (before + self.burst()) / 2.0;
        self.slowdowns.push(slowdown);
        let steady_s = wall_s / slowdown;
        (value, Sample { wall_s, steady_s })
    }

    /// [`Speed::bracket`], adding the step's seconds to `total`.
    pub fn step<T>(&mut self, total: &mut Sample, f: impl FnOnce() -> T) -> T {
        let (value, sample) = self.bracket(f);
        *total += sample;
        value
    }

    /// Times units while at least twice the reference unit is left
    /// before `due`, at most [`PER_WAIT`] of them.
    pub fn fill_until(&mut self, due: Instant) {
        let room = Duration::from_secs_f64(2.0 * REFERENCE_UNIT_US / 1e6);
        for _ in 0..PER_WAIT {
            let now = Instant::now();
            if now + room > due {
                return;
            }
            let window = self.window(now);
            let us = self.unit_us();
            self.windows.entry(window).or_default().push(us);
        }
    }

    fn window(&self, at: Instant) -> u64 {
        (at.duration_since(self.origin).as_nanos() / WINDOW.as_nanos()) as u64
    }

    /// The open loop's slowdown at `at`: the median unit timed in its
    /// window and the two beside it, or `fallback` if there were none.
    pub fn slowdown_at(&mut self, at: Instant, fallback: f64) -> f64 {
        let w = self.window(at);
        if let Some(&s) = self.at_window.get(&w) {
            return s;
        }
        let units: Vec<f64> = self
            .windows
            .range(w.saturating_sub(1)..=w + 1)
            .flat_map(|(_, units)| units.iter().copied())
            .collect();
        let slowdown = if units.is_empty() {
            fallback
        } else {
            median(&units) / REFERENCE_UNIT_US
        };
        self.at_window.insert(w, slowdown);
        self.slowdowns.push(slowdown);
        slowdown
    }

    /// Median of every slowdown measured so far; 1 if none was.
    pub fn median_slowdown(&self) -> f64 {
        if self.slowdowns.is_empty() {
            1.0
        } else {
            median(&self.slowdowns)
        }
    }
}
