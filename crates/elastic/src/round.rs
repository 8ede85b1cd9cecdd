//! The per-round decision core shared by the simulator and the engine:
//! consult the elasticity policy, then the split policy, clamp what the
//! routing layer cannot honour, mutate the partitioner, and hand each
//! executed decision to the driver.
//!
//! Actions are *pulled* one at a time ([`RoundDecisions::next`]) rather
//! than returned as a list, because a driver reacts between them: the
//! engine captures `Partitioner::routing_view` after each mutation and
//! before the next, so a scale-in op ships the view the scale-in
//! produced — not one a same-round split or rebalance already changed.
//! `Partitioner::end_interval` is not part of the round: both drivers
//! call it directly afterwards (the simulator times it; the engine's
//! dead-slot fixups around it are engine-only).
//!
//! A *provisional* round ([`RoundDecisions::provisional`], DESIGN.md §6)
//! — statistics cut inside an open interval the source saw skewed —
//! reaches the split stage only, and only to split: a key heavier than
//! `Lmax` on its own is put to a *clone* of the split policy with its
//! costs scaled up to a whole interval.

use streambal_core::{heavy_hitter, IntervalStats, Key, Partitioner, TaskId, SKEW_ALERT_FLOOR};

use crate::{
    choose_replicas, ElasticityPolicy, IntervalObservation, ScaleDecision, ScaleEvent,
    SplitDecision, SplitEvent, SplitObservation, SplitPolicy,
};

/// What a driver observed over one statistics round — closed, or cut
/// inside the open interval for [`RoundDecisions::provisional`] — plus
/// the two facts only the driver knows: which slots are dead and whether
/// one more instance can be provisioned right now.
#[derive(Debug, Clone)]
pub struct RoundInputs<'a> {
    /// What the elasticity policy sees. `n_tasks` is the *planned*
    /// parallelism — `Partitioner::n_tasks` before any of this round's
    /// decisions — and stays the frame of reference for the split
    /// decision even when a scale decision fires first. `n_dead` is
    /// taken from `dead`.
    pub obs: IntervalObservation<'a>,
    /// The round's merged per-key statistics: its keys are the `live`
    /// set scale ops plan against, its costs what the split policy sees.
    pub stats: &'a IntervalStats,
    /// Dead-but-not-respawned worker slots, any order. The simulator
    /// models no failures and passes none.
    pub dead: Vec<usize>,
    /// Whether a `ScaleOut` can be honoured: the simulator's
    /// `n_tasks < max_tasks`; the engine's "the slot of task `n_tasks`
    /// is vacant" (it decides no round while a retire is in flight). A
    /// scale-out the driver cannot honour is skipped, not deferred: the
    /// round yields no action for it, as for `Hold`, and the policy is
    /// not told.
    pub can_grow: bool,
}

/// One executed (or refused) decision, handed to the driver at the point
/// the routing function has just changed for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundAction {
    /// The policy asked to grow while slots are dead: re-provision the
    /// lowest dead slot instead of widening — the capacity wanted back
    /// is the capacity the death took. Routing is untouched.
    Revive {
        /// The slot to respawn.
        slot: usize,
    },
    /// `Partitioner::scale_out_plan` ran: `new` joined and each
    /// `(key, holder)` move names state to pre-place on it.
    ScaleOut {
        /// The executed change.
        event: ScaleEvent,
        /// The instance that joined.
        new: TaskId,
        /// Keys now routed to `new`, with their current holders.
        moves: Vec<(Key, TaskId)>,
    },
    /// The policy asked to shrink a degraded topology: refused, because
    /// the survivors already carry the dead slots' keys.
    ScaleHeld,
    /// `Partitioner::scale_in` ran on the highest-numbered task.
    ScaleIn {
        /// The executed change.
        event: ScaleEvent,
        /// The task no key routes to any more.
        victim: TaskId,
    },
    /// `Partitioner::split_key` installed a split.
    Split {
        /// The executed change.
        event: SplitEvent,
        /// The salted key.
        key: Key,
    },
    /// `Partitioner::unsplit_key` dissolved a split.
    Unsplit {
        /// The executed change.
        event: SplitEvent,
        /// The consolidated key.
        key: Key,
        /// The replica set that was installed, primary first.
        replicas: Vec<TaskId>,
    },
}

enum Stage {
    Scale,
    Split,
    Done,
}

/// One round's decisions, pulled action by action.
pub struct RoundDecisions<'a> {
    inputs: RoundInputs<'a>,
    stage: Stage,
    /// `Some(cost of the last closed interval)` in a provisional round.
    whole_interval: Option<u64>,
}

impl<'a> RoundDecisions<'a> {
    /// Starts a round over `inputs`.
    pub fn new(inputs: RoundInputs<'a>) -> Self {
        RoundDecisions {
            inputs,
            stage: Stage::Scale,
            whole_interval: None,
        }
    }

    /// Starts a provisional round over the open interval `obs.interval`
    /// so far. `whole_interval` — the total cost of the last closed round,
    /// 0 before the first, which decides nothing — is what the partial
    /// costs are scaled up to. At most one action, a [`RoundAction::Split`].
    pub fn provisional(inputs: RoundInputs<'a>, whole_interval: u64) -> Self {
        RoundDecisions {
            inputs,
            stage: Stage::Split,
            whole_interval: Some(whole_interval),
        }
    }

    /// The next executed decision, or `None` when the round is decided.
    /// At most one scale action, then at most one split action.
    pub fn next(
        &mut self,
        partitioner: &mut dyn Partitioner,
        policy: &mut dyn ElasticityPolicy,
        split: Option<&mut (dyn SplitPolicy + '_)>,
    ) -> Option<RoundAction> {
        if matches!(self.stage, Stage::Scale) {
            self.stage = Stage::Split;
            if let Some(action) = self.decide_scale(partitioner, policy) {
                return Some(action);
            }
        }
        if matches!(self.stage, Stage::Split) {
            self.stage = Stage::Done;
            return split.and_then(|sp| self.decide_split(partitioner, sp));
        }
        None
    }

    fn live_keys(&self) -> Vec<Key> {
        self.inputs.stats.iter().map(|(k, _)| k).collect()
    }

    fn decide_scale(
        &mut self,
        partitioner: &mut dyn Partitioner,
        policy: &mut dyn ElasticityPolicy,
    ) -> Option<RoundAction> {
        let obs = IntervalObservation {
            n_dead: self.inputs.dead.len(),
            ..self.inputs.obs
        };
        let (interval, planned) = (obs.interval, obs.n_tasks);
        let lowest_dead = self.inputs.dead.iter().copied().min();
        match (policy.decide(&obs), lowest_dead) {
            (ScaleDecision::Hold, _) => None,
            (ScaleDecision::ScaleOut, Some(slot)) => {
                // No longer dead for this round's split decision.
                self.inputs.dead.retain(|&d| d != slot);
                Some(RoundAction::Revive { slot })
            }
            (ScaleDecision::ScaleOut, None) if self.inputs.can_grow => {
                let (new, moves) = partitioner.scale_out_plan(&self.live_keys());
                let event = ScaleEvent {
                    interval,
                    from: planned,
                    to: planned + 1,
                };
                Some(RoundAction::ScaleOut { event, new, moves })
            }
            (ScaleDecision::ScaleIn, Some(_)) => Some(RoundAction::ScaleHeld),
            (ScaleDecision::ScaleIn, None) if planned > 1 => {
                // The routing function shrinks now — later decisions and
                // rebalances build on it; a driver with physical state
                // retires the victim behind whatever is in flight.
                let victim = TaskId::from(planned - 1);
                partitioner.scale_in(victim, &self.live_keys());
                let event = ScaleEvent {
                    interval,
                    from: planned,
                    to: planned - 1,
                };
                Some(RoundAction::ScaleIn { event, victim })
            }
            // Growth the driver cannot honour, or shrinking the last
            // task: skipped, and the policy is not told.
            (ScaleDecision::ScaleOut | ScaleDecision::ScaleIn, None) => None,
        }
    }

    fn decide_split(
        &mut self,
        partitioner: &mut dyn Partitioner,
        sp: &mut dyn SplitPolicy,
    ) -> Option<RoundAction> {
        let (interval, planned) = (self.inputs.obs.interval, self.inputs.obs.n_tasks);
        let stats = self.inputs.stats;
        let mut split: Vec<Key> = partitioner.splits().into_iter().map(|(k, _)| k).collect();
        split.sort_unstable();
        // The policy's watermarks are per interval; the source's alert
        // floor stands in for θmax, which only the partitioner knows.
        let scale = match self.whole_interval {
            None => None,
            Some(whole) => {
                heavy_hitter(stats, &split, planned, SKEW_ALERT_FLOOR).filter(|_| whole > 0)?;
                Some(whole as f64 / stats.total_cost() as f64)
            }
        };
        // Per-key costs are the merged round totals — a split key's
        // entry already sums its replicas' partial loads, which is the
        // signal the unsplit watermark needs.
        let key_loads: Vec<(u64, u64)> = stats
            .iter()
            .map(|(k, st)| match scale {
                None => (k.raw(), st.cost),
                Some(f) => (k.raw(), (st.cost as f64 * f).round() as u64),
            })
            .collect();
        let split_keys: Vec<u64> = split.iter().map(|k| k.raw()).collect();
        let sobs = SplitObservation {
            interval,
            n_tasks: planned,
            key_loads: &key_loads,
            split_keys: &split_keys,
        };
        let decision = match scale {
            None => sp.decide(&sobs),
            // On a clone: the closing round finds the policy's streaks and
            // cooldown untouched. An unsplit needs whole quiet intervals.
            Some(_) => match sp.box_clone().decide(&sobs) {
                split @ SplitDecision::Split { .. } => split,
                _ => SplitDecision::Hold,
            },
        };
        match decision {
            SplitDecision::Split { key, replicas }
                if planned >= 2 && replicas >= 2 && !split_keys.contains(&key) =>
            {
                // The key's current route stays primary (unsplit
                // consolidates back onto it with no table change); the
                // rest are the least-loaded live tasks. Dead slots sort
                // last — routing to them would only bounce off the
                // source's divert.
                let k = Key(key);
                let primary = partitioner.route(k);
                let task_loads: Vec<u64> = (0..planned)
                    .map(|i| {
                        if self.inputs.dead.contains(&i) {
                            u64::MAX
                        } else {
                            self.inputs.obs.loads.get(i).copied().unwrap_or(0)
                        }
                    })
                    .collect();
                let slots: Vec<TaskId> = choose_replicas(primary.index(), &task_loads, replicas)
                    .into_iter()
                    .map(TaskId::from)
                    .collect();
                (slots.len() >= 2 && partitioner.split_key(k, &slots)).then(|| {
                    let event = SplitEvent {
                        interval,
                        key,
                        from: 1,
                        to: slots.len(),
                    };
                    RoundAction::Split { event, key: k }
                })
            }
            SplitDecision::Unsplit { key } => {
                let k = Key(key);
                partitioner.unsplit_key(k).map(|replicas| {
                    let event = SplitEvent {
                        interval,
                        key,
                        from: replicas.len(),
                        to: 1,
                    };
                    RoundAction::Unsplit {
                        event,
                        key: k,
                        replicas,
                    }
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixedSchedule, FixedSplitSchedule, HoldPolicy};
    use streambal_baselines::{storm, CoreBalancer};
    use streambal_core::KeyStat;

    fn observation(interval: u64, loads: &[u64]) -> IntervalObservation<'_> {
        IntervalObservation {
            interval,
            n_tasks: loads.len(),
            loads,
            queue_depths: &[],
            mean_latency_us: 0.0,
            p99_latency_us: 0.0,
            n_dead: 0,
        }
    }

    /// Everything one interval-0 round decides over `p`, with per-task
    /// loads of 10 and one observed key.
    fn decide(
        p: &mut CoreBalancer,
        scale: ScaleDecision,
        split: Option<SplitDecision>,
        dead: &[usize],
        can_grow: bool,
    ) -> Vec<RoundAction> {
        let stats: IntervalStats = [(Key(7), KeyStat::new(1, 1, 1))].into_iter().collect();
        let loads = vec![10; p.n_tasks()];
        let inputs = RoundInputs {
            obs: observation(0, &loads),
            stats: &stats,
            dead: dead.to_vec(),
            can_grow,
        };
        let mut policy = FixedSchedule::new([(0, scale)]);
        let mut split = split.map(|d| FixedSplitSchedule::new([(0, d)]));
        let mut round = RoundDecisions::new(inputs);
        let mut out = Vec::new();
        while let Some(action) = round.next(
            p,
            &mut policy,
            split.as_mut().map(|s| s as &mut dyn SplitPolicy),
        ) {
            out.push(action);
        }
        out
    }

    #[test]
    fn scale_out_is_clamped_when_the_driver_cannot_grow() {
        let mut p = storm(2);
        let acts = decide(&mut p, ScaleDecision::ScaleOut, None, &[], false);
        assert_eq!(acts, vec![]);
        assert_eq!(p.n_tasks(), 2, "a clamped decision mutates nothing");

        let acts = decide(&mut p, ScaleDecision::ScaleOut, None, &[], true);
        assert!(
            matches!(
                acts[..],
                [RoundAction::ScaleOut { event, new, .. }]
                    if (event.from, event.to) == (2, 3) && new == TaskId(2)
            ),
            "{acts:?}"
        );
        assert_eq!(p.n_tasks(), 3);
    }

    #[test]
    fn scale_in_never_goes_below_one_task() {
        let mut p = storm(2);
        let acts = decide(&mut p, ScaleDecision::ScaleIn, None, &[], true);
        let event = ScaleEvent {
            interval: 0,
            from: 2,
            to: 1,
        };
        let victim = TaskId(1);
        assert_eq!(acts, vec![RoundAction::ScaleIn { event, victim }]);
        assert_eq!(p.n_tasks(), 1);
        assert_eq!(
            decide(&mut p, ScaleDecision::ScaleIn, None, &[], true),
            vec![]
        );
        assert_eq!(p.n_tasks(), 1);
    }

    /// Degraded topology: a scale-in is held, a scale-out revives the
    /// lowest dead slot instead of widening (whatever `can_grow` says),
    /// and neither touches the routing function.
    #[test]
    fn dead_slots_turn_scale_in_into_held_and_scale_out_into_revive() {
        let mut p = storm(3);
        let acts = decide(&mut p, ScaleDecision::ScaleIn, None, &[2, 1], true);
        assert_eq!(acts, vec![RoundAction::ScaleHeld]);
        let acts = decide(&mut p, ScaleDecision::ScaleOut, None, &[2, 1], false);
        assert_eq!(acts, vec![RoundAction::Revive { slot: 1 }]);
        assert_eq!(p.n_tasks(), 3);
    }

    #[test]
    fn split_guards_refuse_what_routing_cannot_honour() {
        let split = |key, replicas| Some(SplitDecision::Split { key, replicas });
        let hold = ScaleDecision::Hold;

        let mut p = storm(3);
        let acts = decide(&mut p, hold, split(7, 2), &[], true);
        assert!(
            matches!(acts[..], [RoundAction::Split { event, key: Key(7) }] if event.to == 2),
            "{acts:?}"
        );
        // Already split: refused, and the installed split is untouched.
        assert_eq!(decide(&mut p, hold, split(7, 3), &[], true), vec![]);
        assert_eq!(p.splits().len(), 1);
        assert_eq!(p.splits()[0].1.len(), 2);
        // A degenerate replica count, or a single task: refused.
        assert_eq!(decide(&mut p, hold, split(8, 1), &[], true), vec![]);
        let mut single = storm(1);
        assert_eq!(decide(&mut single, hold, split(8, 2), &[], true), vec![]);
        // Unsplit of a key that is not split: nothing to do.
        let unsplit = Some(SplitDecision::Unsplit { key: 9 });
        assert_eq!(decide(&mut p, hold, unsplit, &[], true), vec![]);
    }

    /// Replica choice is dead-aware: with equal loads the lowest-indexed
    /// other task would win, unless it is dead — then it sorts last.
    #[test]
    fn split_replicas_avoid_dead_slots() {
        let mut p = storm(3);
        let primary = p.route(Key(7)).index();
        let others: Vec<usize> = (0..3).filter(|&i| i != primary).collect();
        let split = Some(SplitDecision::Split {
            key: 7,
            replicas: 2,
        });
        decide(&mut p, ScaleDecision::Hold, split, &[others[0]], true);
        let replicas = &p.splits()[0].1;
        assert_eq!(
            replicas[..],
            [TaskId::from(primary), TaskId::from(others[1])]
        );
    }

    /// A hold-everything round decides nothing and asks nothing of the
    /// partitioner.
    #[test]
    fn a_holding_round_yields_no_action() {
        let mut p = storm(2);
        let stats = IntervalStats::new();
        let inputs = RoundInputs {
            obs: observation(3, &[1, 1]),
            stats: &stats,
            dead: Vec::new(),
            can_grow: true,
        };
        let mut round = RoundDecisions::new(inputs);
        assert_eq!(round.next(&mut p, &mut HoldPolicy, None), None);
        assert_eq!(round.next(&mut p, &mut HoldPolicy, None), None);
    }
}
