//! Buffered lookahead over the functional executor's dynamic stream.

use ctcp_isa::{DynInst, Executor};
use std::collections::VecDeque;

/// A lookahead window over the correct-path dynamic instruction stream.
/// The fetch stage peeks ahead to match trace-cache lines against the
/// upcoming path, then consumes what it fetched.
pub(crate) struct InstStream<'p> {
    exec: Executor<'p>,
    buf: VecDeque<DynInst>,
    exhausted: bool,
}

impl<'p> InstStream<'p> {
    pub(crate) fn new(exec: Executor<'p>) -> Self {
        InstStream {
            exec,
            buf: VecDeque::new(),
            exhausted: false,
        }
    }

    /// Peeks `k` instructions ahead (0 = next).
    pub(crate) fn peek(&mut self, k: usize) -> Option<&DynInst> {
        while self.buf.len() <= k && !self.exhausted {
            match self.exec.next() {
                Some(d) => self.buf.push_back(d),
                None => self.exhausted = true,
            }
        }
        self.buf.get(k)
    }

    /// Consumes the next instruction.
    pub(crate) fn pop(&mut self) -> Option<DynInst> {
        if self.buf.is_empty() {
            self.peek(0)?;
        }
        self.buf.pop_front()
    }

    /// True once every instruction has been consumed.
    pub(crate) fn is_exhausted(&mut self) -> bool {
        self.peek(0).is_none()
    }

    /// Functionally executes (and discards) up to `n` instructions —
    /// the warmup fast-forward. Returns how many were actually skipped,
    /// which is less than `n` only if the program ends first.
    ///
    /// Whatever fetch already peeked goes first; the rest runs through
    /// [`Executor::fast_forward`], which shares the iterator's `step`
    /// but builds no records. The stream that follows is the one `n`
    /// pops would have left, and as with pops, a program that ends at
    /// exactly `n` leaves the stream exhausted only once the next
    /// instruction is asked for.
    pub(crate) fn fast_forward(&mut self, n: u64) -> u64 {
        let buffered = n.min(self.buf.len() as u64);
        self.buf.drain(..buffered as usize);
        let wanted = n - buffered;
        let ran = self.exec.fast_forward(wanted);
        if ran < wanted {
            self.exhausted = true;
        }
        buffered + ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctcp_isa::{ProgramBuilder, Reg};

    #[test]
    fn peek_then_pop_preserves_order() {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 1);
        b.movi(Reg::R2, 2);
        b.movi(Reg::R3, 3);
        b.halt();
        let p = b.build();
        let mut s = InstStream::new(Executor::new(&p));
        assert_eq!(s.peek(2).unwrap().seq, 2);
        assert_eq!(s.peek(0).unwrap().seq, 0);
        assert_eq!(s.pop().unwrap().seq, 0);
        assert_eq!(s.peek(0).unwrap().seq, 1);
        assert_eq!(s.pop().unwrap().seq, 1);
        assert_eq!(s.pop().unwrap().seq, 2);
        assert_eq!(s.pop().unwrap().seq, 3); // halt
        assert!(s.pop().is_none());
        assert!(s.is_exhausted());
    }

    #[test]
    fn fast_forward_consumes_the_buffer_then_the_executor() {
        let mut b = ProgramBuilder::new();
        for i in 0..6 {
            b.movi(Reg::R1, i);
        }
        b.halt();
        let p = b.build();
        let mut s = InstStream::new(Executor::new(&p));
        assert_eq!(s.peek(1).unwrap().seq, 1);
        // Two buffered instructions, then two straight from the executor.
        assert_eq!(s.fast_forward(4), 4);
        assert_eq!(s.pop().unwrap().seq, 4);
        // Past the end: only what is left is skipped.
        assert_eq!(s.fast_forward(10), 2);
        assert!(s.is_exhausted());
        assert_eq!(s.fast_forward(1), 0);
    }

    #[test]
    fn a_program_ending_at_exactly_n_exhausts_on_the_next_pop() {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 1);
        b.movi(Reg::R2, 2);
        b.halt();
        let p = b.build();
        let mut s = InstStream::new(Executor::new(&p));
        assert_eq!(s.fast_forward(3), 3);
        assert!(!s.exhausted, "nothing has asked past the halt yet");
        assert!(s.pop().is_none());
        assert!(s.exhausted);
        assert_eq!(s.fast_forward(1), 0);
    }
}
