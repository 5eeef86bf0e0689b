//! Cancellation of a hierarchical zoned run (DESIGN.md §9.3): a token
//! tripped mid-run stops within one wave, checkpoints the completed
//! zone prefix, and resuming from that checkpoint reproduces the
//! uninterrupted allocation bit for bit.

use greenps::core::model::{
    AllocError, AllocationInput, BrokerSpec, LinearFn, SubscriptionEntry, Unit,
};
use greenps::core::pipeline::{CancelToken, PipelineError, ReconfigContext};
use greenps::core::zones::{
    zoned_allocate, zoned_allocate_resumable, InputZoneFeed, StreamingGifBuilder, ZoneFeed,
    ZonePlan, ZonedAllocatePhase, ZonedConfig, ZonedRun,
};
use greenps::profile::{ClosenessMetric, PublisherProfile, PublisherTable, SubscriptionProfile};
use greenps::pubsub::ids::{AdvId, BrokerId, MsgId, SubId};
use greenps::pubsub::Filter;
use greenps::telemetry::{names, Registry};

const ZONES: usize = 4;
const SUBS_PER_ZONE: usize = 6;

fn input() -> AllocationInput {
    let publishers: PublisherTable = (1..=3)
        .map(|a| PublisherProfile::new(AdvId::new(a), 30.0, 30_000.0, MsgId::new(127)))
        .collect();
    let subscriptions = (0..(ZONES * SUBS_PER_ZONE) as u64)
        .map(|i| {
            let mut p = SubscriptionProfile::with_capacity(128);
            for m in 0..32 {
                p.record(AdvId::new(i % 3 + 1), MsgId::new((i * 7 + m) % 128));
            }
            SubscriptionEntry::new(SubId::new(i), Filter::new(), p)
        })
        .collect();
    AllocationInput {
        brokers: (0..8u64)
            .map(|i| {
                BrokerSpec::new(
                    BrokerId::new(i),
                    format!("b{i}"),
                    LinearFn::new(0.0005, 0.0),
                    120_000.0,
                )
            })
            .collect(),
        subscriptions,
        publishers,
    }
}

/// A feed over fixed index slices that can trip a cancel token right
/// after materializing a chosen zone, and records which zones it was
/// asked for — the observable for "completed zones are never re-fed".
struct TrippingFeed<'a> {
    input: &'a AllocationInput,
    token: CancelToken,
    trip_after_zone: Option<usize>,
    fed: Vec<usize>,
}

impl<'a> TrippingFeed<'a> {
    fn new(input: &'a AllocationInput, token: CancelToken, trip_after_zone: Option<usize>) -> Self {
        Self {
            input,
            token,
            trip_after_zone,
            fed: Vec::new(),
        }
    }
}

impl ZoneFeed for TrippingFeed<'_> {
    fn zone_count(&self) -> usize {
        ZONES
    }

    fn feed(
        &mut self,
        zone: usize,
        builder: &mut StreamingGifBuilder,
        cancel: &CancelToken,
    ) -> Result<(), AllocError> {
        if cancel.is_cancelled_hot() {
            return Err(AllocError::Cancelled);
        }
        self.fed.push(zone);
        for i in zone * SUBS_PER_ZONE..(zone + 1) * SUBS_PER_ZONE {
            builder.push(Unit::from_subscription(
                &self.input.subscriptions[i],
                &self.input.publishers,
            ));
        }
        if self.trip_after_zone == Some(zone) {
            self.token.cancel();
        }
        Ok(())
    }
}

fn config() -> ZonedConfig {
    // One zone per wave: the tightest stop-latency contract.
    ZonedConfig::with_metric(ClosenessMetric::Intersect)
}

#[test]
fn mid_wave_cancel_stops_within_one_wave_and_resumes_bit_identically() {
    let input = input();
    let cfg = config();

    // Uninterrupted reference run over the same zone slices.
    let mut feed = TrippingFeed::new(&input, CancelToken::never(), None);
    let reference = zoned_allocate(
        &mut feed,
        &input.brokers,
        &input.publishers,
        &cfg,
        &Registry::disabled(),
    )
    .expect("reference run is feasible");
    assert_eq!(feed.fed, vec![0, 1, 2, 3]);

    // Cancelled run: the token trips right after zone 1's pool is
    // materialized, while its CRAM run is still in flight.
    let registry = Registry::new();
    let token = CancelToken::new();
    let mut feed = TrippingFeed::new(&input, token.clone(), Some(1));
    let run = zoned_allocate_resumable(
        &mut feed,
        &input.brokers,
        &input.publishers,
        &cfg,
        &registry,
        &token,
        None,
    )
    .expect("cancellation is an outcome, not an error");
    let checkpoint = match run {
        ZonedRun::Cancelled(cp) => cp,
        ZonedRun::Complete(_) => panic!("tripped token must not complete"),
    };
    // Bounded stop latency: at most the in-flight wave is discarded —
    // every zone before the trip is checkpointed, and no zone after
    // the in-flight wave was even fed.
    assert!(
        checkpoint.done.len() + 1 >= feed.fed.len(),
        "lost more than the in-flight wave: done {:?}, fed {:?}",
        checkpoint.done.len(),
        feed.fed
    );
    assert_eq!(feed.fed, vec![0, 1], "zones past the trip never start");
    let done: Vec<u32> = checkpoint.done.iter().map(|z| z.zone).collect();
    assert_eq!(done, (0..checkpoint.done.len() as u32).collect::<Vec<_>>());
    assert_eq!(
        registry.counter(&names::CANCEL_OBSERVED).get(),
        1,
        "one cancellation observed"
    );

    // Resume from the checkpoint with a fresh token: the completed
    // prefix is never re-fed, and the outcome is bit-identical to the
    // uninterrupted run — allocation, stats, zones, and link counts.
    let resumed_from = checkpoint.done.len();
    let mut feed = TrippingFeed::new(&input, CancelToken::never(), None);
    let run = zoned_allocate_resumable(
        &mut feed,
        &input.brokers,
        &input.publishers,
        &cfg,
        &Registry::disabled(),
        &CancelToken::never(),
        Some(checkpoint),
    )
    .expect("resumed run is feasible");
    let resumed = match run {
        ZonedRun::Complete(allocation) => allocation,
        ZonedRun::Cancelled(_) => panic!("never-token cannot cancel"),
    };
    assert_eq!(
        feed.fed,
        (resumed_from..ZONES).collect::<Vec<_>>(),
        "checkpointed zones are skipped on resume"
    );
    assert_eq!(resumed, reference, "resume is bit-identical");
}

#[test]
fn cancelled_phase_reports_cancelled_and_stashes_no_partial_before_work() {
    let input = input();
    let ctx = ReconfigContext::new();
    let mut phase = ZonedAllocatePhase {
        input: &input,
        plan: ZonePlan::PublisherAffinity { zones: 2, seed: 3 },
        config: config(),
        resume: None,
        partial: None,
    };
    ctx.cancel();
    let err = greenps::core::pipeline::Phase::run(&mut phase, (), &ctx)
        .expect_err("pre-tripped context cannot complete");
    assert!(
        matches!(err, PipelineError::Cancelled { .. }),
        "got: {err:?}"
    );
    // Cancelled while gathering the feed: nothing completed, so there
    // is no checkpoint to stash.
    assert!(phase.partial.is_none());
    // Clearing the flag lets the same phase run to completion.
    ctx.clear_cancel();
    let out = greenps::core::pipeline::Phase::run(&mut phase, (), &ctx).expect("clean run");
    assert!(out.allocation.sub_count() == input.subscriptions.len());
}

#[test]
fn cancel_then_resume_through_the_input_feed_matches_input_run() {
    // Same contract through the production `InputZoneFeed`: cancel the
    // cross pass (every zone done), resume, and match the clean run.
    let input = input();
    let cfg = config();
    let plan = ZonePlan::PublisherAffinity { zones: 3, seed: 11 };
    let mut feed = InputZoneFeed::new(&input, &plan);
    let reference = zoned_allocate(
        &mut feed,
        &input.brokers,
        &input.publishers,
        &cfg,
        &Registry::disabled(),
    )
    .expect("reference run is feasible");

    // Trip the token after the last zone is fed: the wave completes,
    // and the cancellation lands on the pre-cross poll.
    let token = CancelToken::new();
    let mut feed = TrippingFeed::new(&input, token.clone(), Some(ZONES - 1));
    let run = zoned_allocate_resumable(
        &mut feed,
        &input.brokers,
        &input.publishers,
        &cfg,
        &Registry::disabled(),
        &token,
        None,
    )
    .expect("cancellation is an outcome");
    let checkpoint = match run {
        ZonedRun::Cancelled(cp) => cp,
        ZonedRun::Complete(_) => panic!("tripped token must not complete"),
    };
    assert!(!checkpoint.done.is_empty());

    // The checkpoint round-trips losslessly through the artifact JSON
    // used by the pipeline store.
    use greenps::core::pipeline::Artifact;
    let json = checkpoint.to_json();
    let back = greenps::core::zones::ZonedCheckpoint::from_json(&json).expect("round-trip");
    assert_eq!(back, checkpoint);

    // Resume with the production input feed over the same slices: the
    // input-feed reference used a different partition, so compare the
    // resumed run against the slice-feed reference instead.
    let mut feed = TrippingFeed::new(&input, CancelToken::never(), None);
    let slice_reference = zoned_allocate(
        &mut feed,
        &input.brokers,
        &input.publishers,
        &cfg,
        &Registry::disabled(),
    )
    .expect("slice reference is feasible");
    let mut feed = TrippingFeed::new(&input, CancelToken::never(), None);
    let run = zoned_allocate_resumable(
        &mut feed,
        &input.brokers,
        &input.publishers,
        &cfg,
        &Registry::disabled(),
        &CancelToken::never(),
        Some(back),
    )
    .expect("resumed run is feasible");
    match run {
        ZonedRun::Complete(allocation) => assert_eq!(allocation, slice_reference),
        ZonedRun::Cancelled(_) => panic!("never-token cannot cancel"),
    }
    // And the clean input-feed run is self-consistent.
    assert_eq!(reference.allocation.sub_count(), input.subscriptions.len());
}
