//! A persistent lockstep worker team.
//!
//! [`Pool::map`](crate::Pool::map) spawns and joins its workers on every
//! call, which is the right shape for a batch of independent jobs but the
//! wrong one for a driver that re-dispatches the *same* stateful work
//! many times (the fleet driver steps every array once per fleet epoch —
//! hundreds of dispatches per run). [`lockstep`] instead spawns one
//! long-lived worker per state for the whole exchange: each worker owns
//! its state, serves commands off a bounded rendezvous mailbox, and only
//! gives the state back (through `finish`) when the controller hangs up.
//!
//! The mailboxes are [`std::sync::mpsc::sync_channel`]s of depth 1 —
//! preallocated slots, so a steady-state command/response round trip
//! allocates nothing. The channel handoff is also the synchronization
//! edge: everything a worker wrote before replying (including `Relaxed`
//! atomics) is visible to the controller after [`Team::recv`], and vice
//! versa for [`Team::send`].
//!
//! With a single state no threads are spawned at all: commands are served
//! inline on the calling thread, so a one-worker exchange is exactly the
//! serial execution — the same guarantee `Pool::new(1)` gives `map`.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// The controller's handle to the workers: one command/response lane per
/// state, indexed in the order the states were given to [`lockstep`].
///
/// Lanes are independent: the usual pattern is to `send` to every lane,
/// then `recv` from every lane — workers run their commands concurrently
/// in between. Dropping the `Team` (or leaving the `lockstep` body) hangs
/// up every lane, which is what tells workers to finalize.
pub struct Team<'a, S, Cmd, Rsp> {
    inner: Inner<'a, S, Cmd, Rsp>,
}

enum Inner<'a, S, Cmd, Rsp> {
    /// One spawned worker per lane.
    Threads(Vec<Lane<Cmd, Rsp>>),
    /// Single state: serve inline, buffer the response until `recv`.
    Inline {
        state: &'a mut S,
        serve: &'a dyn Fn(usize, &mut S, Cmd) -> Rsp,
        pending: Option<Rsp>,
    },
}

struct Lane<Cmd, Rsp> {
    tx: SyncSender<Cmd>,
    rx: Receiver<Rsp>,
}

impl<S, Cmd, Rsp> Team<'_, S, Cmd, Rsp> {
    /// Number of lanes (== number of states).
    pub fn lanes(&self) -> usize {
        match &self.inner {
            Inner::Threads(lanes) => lanes.len(),
            Inner::Inline { .. } => 1,
        }
    }

    /// Hands `cmd` to worker `w`. With spawned workers this blocks only
    /// if the worker has not yet picked up the previous command (the
    /// mailbox holds one); inline, the command is served immediately on
    /// the calling thread.
    ///
    /// # Panics
    /// Panics if the worker is gone (it panicked), or — inline — if the
    /// previous response was never collected.
    pub fn send(&mut self, w: usize, cmd: Cmd) {
        match &mut self.inner {
            Inner::Threads(lanes) => lanes[w]
                .tx
                .send(cmd)
                .expect("team worker hung up (it panicked)"),
            Inner::Inline {
                state,
                serve,
                pending,
            } => {
                assert!(w == 0, "inline team has exactly one lane");
                assert!(pending.is_none(), "inline send before recv");
                *pending = Some(serve(0, state, cmd));
            }
        }
    }

    /// Collects worker `w`'s response to the last [`Team::send`].
    ///
    /// # Panics
    /// Panics if the worker died without replying (it panicked; the
    /// original panic is re-raised when the team scope joins it).
    pub fn recv(&mut self, w: usize) -> Rsp {
        match &mut self.inner {
            Inner::Threads(lanes) => lanes[w]
                .rx
                .recv()
                .expect("team worker died mid-command (it panicked)"),
            Inner::Inline { pending, .. } => {
                assert!(w == 0, "inline team has exactly one lane");
                pending.take().expect("inline recv before send")
            }
        }
    }
}

/// Runs a lockstep exchange: spawns one persistent worker per entry of
/// `states` (scoped threads — workers may borrow from the caller), hands
/// the caller a [`Team`] to drive them with, and once the body returns,
/// hangs up, finalizes every state with `finish` *on its worker thread*,
/// and returns the body's output alongside the finish values in state
/// order.
///
/// `serve(w, state, cmd)` handles one command on worker `w`; it runs on
/// the worker's thread with exclusive access to that worker's state.
/// `finish(w, state)` consumes the state after hang-up (also on the
/// worker's thread, so expensive finalization parallelizes).
///
/// With one state everything runs inline on the calling thread; results
/// are identical because `serve` sees the same state/command sequence
/// either way.
///
/// # Panics
/// A panic in `serve` or `finish` propagates to the caller; a panic in
/// `body` unwinds through the scope after the workers drain out.
pub fn lockstep<S, Cmd, Rsp, Fin, Out>(
    states: Vec<S>,
    serve: impl Fn(usize, &mut S, Cmd) -> Rsp + Sync,
    finish: impl Fn(usize, S) -> Fin + Sync,
    body: impl FnOnce(&mut Team<'_, S, Cmd, Rsp>) -> Out,
) -> (Out, Vec<Fin>)
where
    S: Send,
    Cmd: Send,
    Rsp: Send,
    Fin: Send,
{
    assert!(!states.is_empty(), "lockstep needs at least one state");
    if states.len() == 1 {
        let mut states = states;
        let mut state = states.pop().expect("one state");
        let mut team = Team {
            inner: Inner::Inline {
                state: &mut state,
                serve: &serve,
                pending: None,
            },
        };
        let out = body(&mut team);
        drop(team);
        return (out, vec![finish(0, state)]);
    }

    std::thread::scope(|scope| {
        let serve = &serve;
        let finish = &finish;
        let mut lanes = Vec::with_capacity(states.len());
        let mut handles = Vec::with_capacity(states.len());
        for (w, mut state) in states.into_iter().enumerate() {
            let (ctx, crx) = sync_channel::<Cmd>(1);
            let (rtx, rrx) = sync_channel::<Rsp>(1);
            handles.push(scope.spawn(move || {
                while let Ok(cmd) = crx.recv() {
                    let rsp = serve(w, &mut state, cmd);
                    if rtx.send(rsp).is_err() {
                        break; // controller hung up mid-reply
                    }
                }
                finish(w, state)
            }));
            lanes.push(Lane { tx: ctx, rx: rrx });
        }
        let mut team = Team {
            inner: Inner::Threads(lanes),
        };
        let out = body(&mut team);
        drop(team); // hang up: workers fall out of their serve loops
        let fins = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(fin) => fin,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect();
        (out, fins)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Drives `n` counter states through `rounds` increments each and
    /// checks both the responses and the finish values.
    fn drive(n: usize, rounds: u64) {
        let states: Vec<u64> = vec![0; n];
        let (echoes, finals) = lockstep(
            states,
            |w, st, add: u64| {
                *st += add;
                (w, *st)
            },
            |w, st| (w, st),
            |team| {
                assert_eq!(team.lanes(), n);
                let mut echoes = Vec::new();
                for round in 1..=rounds {
                    for w in 0..n {
                        team.send(w, round);
                    }
                    for w in 0..n {
                        echoes.push(team.recv(w));
                    }
                }
                echoes
            },
        );
        let expect_total: u64 = (1..=rounds).sum();
        for (w, fin) in finals.iter().enumerate() {
            assert_eq!(*fin, (w, expect_total));
        }
        // Per-round responses carry the running sum, in lane order.
        let mut ix = 0;
        let mut running = 0;
        for round in 1..=rounds {
            running += round;
            for w in 0..n {
                assert_eq!(echoes[ix], (w, running));
                ix += 1;
            }
        }
    }

    #[test]
    fn multi_worker_exchange_is_deterministic() {
        drive(4, 10);
    }

    #[test]
    fn single_state_runs_inline() {
        // Inline mode must produce the identical exchange.
        drive(1, 10);
    }

    #[test]
    fn workers_borrow_shared_state() {
        // The serve closure may capture shared references; relaxed adds
        // + the channel rendezvous make the total visible at finish.
        let total = AtomicU64::new(0);
        let (_, fins) = lockstep(
            vec![(); 3],
            |_, _, x: u64| {
                total.fetch_add(x, Ordering::Relaxed);
            },
            |_, _| (),
            |team| {
                for round in 0..5u64 {
                    for w in 0..3 {
                        team.send(w, round);
                    }
                    for w in 0..3 {
                        team.recv(w);
                    }
                }
            },
        );
        assert_eq!(fins.len(), 3);
        // 3 workers each summed rounds 0..5.
        assert_eq!(total.load(Ordering::Relaxed), 3 * 10);
    }

    #[test]
    fn finish_runs_without_any_commands() {
        let (out, fins) = lockstep(
            vec![10u32, 20, 30],
            |_, _, (): ()| (),
            |w, st| st + w as u32,
            |_| "done",
        );
        assert_eq!(out, "done");
        assert_eq!(fins, vec![10, 21, 32]);
    }

    #[test]
    fn serve_panic_propagates() {
        let res = std::panic::catch_unwind(|| {
            lockstep(
                vec![0u8, 0],
                |w, _, (): ()| {
                    if w == 1 {
                        panic!("worker 1 exploded");
                    }
                },
                |_, st| st,
                |team| {
                    team.send(0, ());
                    team.send(1, ());
                    team.recv(0);
                    team.recv(1); // worker 1 died: panics, then unwinds
                },
            )
        });
        assert!(res.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn body_panic_does_not_deadlock() {
        let res = std::panic::catch_unwind(|| {
            lockstep(
                vec![0u8, 0, 0],
                |_, _, (): ()| (),
                |_, st| st,
                |team| {
                    team.send(0, ());
                    panic!("body bailed early");
                },
            )
        });
        assert!(res.is_err());
    }
}
