//! Allocation accounting for an idle supervision step, via a counting
//! global allocator (this integration test is its own binary, so the
//! allocator swap is local to it). Each thread counts only its own
//! allocations, so the server's worker and watchdog threads do not blur
//! the count of the calling thread.
//!
//! A step over a tenant with nothing new since its newest frame reads the
//! session's epoch under the lock and stops there: it clones no session
//! state and writes nothing.

use std::time::Duration;

use hbn_dynamic::OnlineRequest;
use hbn_scenario::{ScenarioSpec, TopologyFamily};
use hbn_server::{Server, ServerConfig};
use hbn_testutil::{allocations, CountingAlloc, TestDir};
use hbn_workload::{ObjectId, PhaseSchedule};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn checkpoint_at_an_unchanged_epoch_allocates_only_the_returned_path() {
    let dir = TestDir::new(env!("CARGO_TARGET_TMPDIR"), "zero-alloc-idle");
    let mut cfg = ServerConfig::new(dir.as_ref());
    cfg.watchdog_poll = Duration::from_secs(3600);
    let server = Server::new(cfg).unwrap();
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    server.add_tenant(ScenarioSpec::new("t", topology, PhaseSchedule::new(8, vec![]), 2, 7));
    let procs = server.processors("t").unwrap();
    for i in 0..4u32 {
        let batch: Vec<OnlineRequest> = (0..12u32)
            .map(|k| OnlineRequest {
                processor: procs[((i + k) as usize) % procs.len()],
                object: ObjectId((i * 5 + k) % 8),
                is_write: k % 3 == 0,
            })
            .collect();
        server.submit("t", batch, None).unwrap().wait().unwrap();
    }
    let first = server.checkpoint_now("t").unwrap();

    let before = allocations();
    let again = server.checkpoint_now("t").unwrap();
    let made = allocations() - before;
    assert_eq!(again, first);
    assert!(made <= 1, "an idle checkpoint made {made} allocations");
    drop(server.shutdown());
}
