//! In-memory spans around the benchmark's calls into each layer.
//!
//! The traced run wraps every call into a layer's public function in a
//! [`Span`]: name, start, end, parent and unit id. Spans stay in memory
//! while the run measures and are written out once it ends. A span's
//! self time is its duration minus the time its direct children cover.

use std::io::Write;
use std::time::Instant;

/// The layer a span measures: one public call site each, plus the
/// benchmark's own loop and its output check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One unit of the benchmark loop (a decode step, a vector, or one
    /// client iteration); its self time is the loop's own overhead.
    Unit,
    /// `IntSoftmax::quantize_into` through `ApSoftmax::spec()`.
    Quantize,
    /// `ApSoftmax::warmup(&[len])`: plan lookup, compile and autotune
    /// search on a miss.
    Compile,
    /// `ApSoftmax::execute_codes_into`: plan-slot lookup and replay.
    Execute,
    /// `SoftmaxServer::submit`.
    Submit,
    /// `Ticket::wait_into`.
    Wait,
    /// The benchmark's comparison against the scalar reference and the
    /// expected cost.
    Check,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Unit,
        Layer::Quantize,
        Layer::Compile,
        Layer::Execute,
        Layer::Submit,
        Layer::Wait,
        Layer::Check,
    ];

    /// The span name written out and printed.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Unit => "bench.unit",
            Layer::Quantize => "quantize",
            Layer::Compile => "compile",
            Layer::Execute => "execute",
            Layer::Submit => "serve.submit",
            Layer::Wait => "serve.wait",
            Layer::Check => "bench.check",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Wraps calls into the program. [`NoTrace`] compiles to the bare call,
/// so the untraced loop pays nothing for the probe.
pub trait Probe {
    /// Whether spans are recorded.
    const TRACED: bool;

    /// Opens a span of `layer` for `unit`; spans opened until the
    /// matching [`Probe::exit`] become its children.
    fn enter(&mut self, layer: Layer, unit: u32);

    /// Closes the innermost open span.
    fn exit(&mut self);

    /// Runs `f` inside a span of `layer` for `unit`.
    #[inline(always)]
    fn span<R>(&mut self, layer: Layer, unit: u32, f: impl FnOnce() -> R) -> R {
        self.enter(layer, unit);
        let out = f();
        self.exit();
        out
    }
}

/// The untraced probe.
#[derive(Debug, Default)]
pub struct NoTrace;

impl Probe for NoTrace {
    const TRACED: bool = false;

    #[inline(always)]
    fn enter(&mut self, _layer: Layer, _unit: u32) {}

    #[inline(always)]
    fn exit(&mut self) {}
}

/// A recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer measured.
    pub layer: Layer,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The benchmark unit the span belongs to.
    pub unit: u32,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory; single-threaded, properly nested.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty tracer with room for `capacity` spans, so recording
    /// does not reallocate while the run measures.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    /// Nanoseconds since the tracer's origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Total self time per layer, indexed like [`Layer::ALL`].
    #[must_use]
    pub fn self_ns(&self) -> [u64; Layer::ALL.len()] {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
            }
        }
        let mut by_layer = [0u64; Layer::ALL.len()];
        for (s, ns) in self.spans.iter().zip(own) {
            by_layer[s.layer.index()] += ns;
        }
        by_layer
    }

    /// Durations of every span of `layer`, in recording order.
    pub fn durations(&self, layer: Layer) -> impl Iterator<Item = u64> + '_ {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer)
            .map(Span::duration_ns)
    }

    /// Writes the spans as tab-separated lines tagged with `phase`.
    ///
    /// # Errors
    ///
    /// Any write error.
    pub fn write_tsv(&self, phase: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{phase}\t{}\t{}\t{parent}\t{}\t{}",
                s.layer.name(),
                s.unit,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

impl Probe for Tracer {
    const TRACED: bool = true;

    fn enter(&mut self, layer: Layer, unit: u32) {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent: self.open.last().copied(),
            unit,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx as usize].end_ns = end_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::with_capacity(4);
        t.span(Layer::Unit, 0, || ());
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].parent, None);
        let mut t2 = Tracer::with_capacity(4);
        t2.spans = vec![
            Span {
                layer: Layer::Unit,
                parent: None,
                unit: 0,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                layer: Layer::Execute,
                parent: Some(0),
                unit: 0,
                start_ns: 10,
                end_ns: 70,
            },
            Span {
                layer: Layer::Quantize,
                parent: Some(1),
                unit: 0,
                start_ns: 20,
                end_ns: 30,
            },
        ];
        let own = t2.self_ns();
        assert_eq!(own[Layer::Unit.index()], 40);
        assert_eq!(own[Layer::Execute.index()], 50);
        assert_eq!(own[Layer::Quantize.index()], 10);
        assert_eq!(own.iter().sum::<u64>(), 100);
    }
}
