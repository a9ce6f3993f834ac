//! Ring-buffered JSON-lines storage.

use crate::Event;

/// A bounded in-memory stream of JSON lines.
///
/// Events are serialized with [`Event::write_jsonl`] the moment they are
/// pushed, so the ring holds bytes (typically under 100 per line) rather
/// than `Event` values, and handing the stream over is a move, not a
/// second pass.
///
/// When the ring already holds `capacity` lines, the *oldest* whole line
/// is discarded and the dropped counter bumps; the auditor treats any drop
/// as an incomplete stream, so capacity should be sized generously
/// relative to the run — the default in
/// [`TelemetryConfig`](crate::TelemetryConfig) covers a full `--quick`
/// horizon with room to spare. The [`Recorder`](crate::Recorder)'s writer
/// takes a run's header out with [`EventSink::take_oldest`] before it
/// would be evicted, so an overflowed stream still says whose run it was.
#[derive(Debug)]
pub(crate) struct EventSink {
    /// Serialized lines; the live stream is `buf[head..]`.
    buf: Vec<u8>,
    /// Byte offset of the oldest retained line.
    head: usize,
    /// Lines retained.
    lines: usize,
    capacity: usize,
    dropped: u64,
}

impl EventSink {
    /// Creates a sink holding at most `capacity` lines.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "EventSink: zero capacity");
        EventSink {
            buf: Vec::new(),
            head: 0,
            lines: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event's line, evicting the oldest line if the ring is
    /// full.
    pub(crate) fn push(&mut self, ev: &Event) {
        if self.is_full() {
            self.remove_oldest();
            self.dropped += 1;
        }
        ev.write_jsonl(&mut self.buf);
        self.lines += 1;
    }

    /// Removes the oldest line and returns it, newline included, without
    /// counting it as dropped.
    ///
    /// # Panics
    /// Panics if the sink is empty.
    pub(crate) fn take_oldest(&mut self) -> Vec<u8> {
        let start = self.head;
        let end = self.head + self.oldest_len();
        let line = self.buf[start..end].to_vec();
        self.remove_oldest();
        line
    }

    /// Byte length of the oldest line, newline included.
    fn oldest_len(&self) -> usize {
        self.buf[self.head..]
            .iter()
            .position(|&b| b == b'\n')
            .expect("every buffered line ends in a newline")
            + 1
    }

    /// Advances the head past the oldest line, compacting the buffer once
    /// the dead prefix is more than half of it (amortized O(1) per byte).
    fn remove_oldest(&mut self) {
        self.head += self.oldest_len();
        self.lines -= 1;
        if self.head > self.buf.len() / 2 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// Lines currently buffered.
    pub(crate) fn len(&self) -> usize {
        self.lines
    }

    /// True if the next push evicts a line.
    pub(crate) fn is_full(&self) -> bool {
        self.lines == self.capacity
    }

    /// True if no lines are buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.lines == 0
    }

    /// Lines evicted so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the sink, returning the buffered lines oldest first.
    pub(crate) fn into_bytes(mut self) -> Vec<u8> {
        self.buf.drain(..self.head);
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn power(t: f64) -> Event {
        Event::PowerSample {
            time_s: t,
            watts: 100.0,
        }
    }

    fn text(s: &EventSink) -> &str {
        std::str::from_utf8(&s.buf[s.head..]).unwrap()
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut s = EventSink::new(2);
        s.push(&power(1.0));
        s.push(&power(2.0));
        s.push(&power(3.0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 1);
        assert_eq!(
            text(&s),
            "{\"ev\":\"power\",\"t\":2.0,\"watts\":100.0}\n\
             {\"ev\":\"power\",\"t\":3.0,\"watts\":100.0}\n"
        );
    }

    // Lines of different lengths, evicted through many compactions: the
    // survivors are always the newest `capacity` lines, byte for byte.
    #[test]
    fn eviction_keeps_whole_lines_across_compactions() {
        let mut s = EventSink::new(3);
        let mut all = Vec::new();
        for i in 0..50u32 {
            let ev = Event::CacheMiss {
                time_s: f64::from(i) * 0.1,
                chunks: i * 1000,
            };
            ev.write_jsonl(&mut all);
            s.push(&ev);
            let want: Vec<&str> = std::str::from_utf8(&all).unwrap().lines().collect();
            let keep = want.len().min(3);
            let got: Vec<&str> = text(&s).lines().collect();
            assert_eq!(got, want[want.len() - keep..]);
            assert!(
                s.head <= s.buf.len() / 2,
                "compaction keeps the dead prefix bounded"
            );
        }
        assert_eq!((s.len(), s.dropped()), (3, 47));
        let tail = text(&s).to_string();
        assert_eq!(s.into_bytes(), tail.into_bytes());
    }
}
