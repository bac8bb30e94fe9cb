//! Seeded job-arrival streams.
//!
//! A [`JobStream`] declares *which* workloads arrive and *when*, in the
//! same declarative style as the fault schedules: the same seed always
//! produces the same arrival instants and the same template picks.
//!
//! Determinism is structured so offered load can be swept without
//! perturbing the job mix: template picks draw from
//! `DetRng::new(seed).fork(TEMPLATE_SALT).fork(index)` (one pure fork
//! per arrival index), while Poisson interarrival gaps draw
//! sequentially from `fork(ARRIVAL_SALT)`. Scaling the mean
//! interarrival therefore compresses or dilates the *same* arrival
//! pattern over the *same* job sequence.

use sioscope_sim::{DetRng, Time};
use sioscope_workloads::Workload;

/// Fork tag for the sequential interarrival-gap stream.
const ARRIVAL_SALT: u64 = 0x5ced_0000_0000_0001;
/// Fork tag for per-index template picks.
const TEMPLATE_SALT: u64 = 0x5ced_0000_0000_0002;

/// One workload the stream can instantiate, with a sampling weight.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTemplate {
    /// Label carried into per-job outcomes.
    pub label: String,
    /// The dedicated-mode workload this job runs.
    pub workload: Workload,
    /// Relative sampling weight (must be positive).
    pub weight: u32,
}

/// How arrival instants are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamKind {
    /// Open stream: exponential interarrival gaps with the given mean.
    Poisson { mean_interarrival: Time },
    /// Closed loop: `population` jobs cycle; each completion spawns its
    /// successor after `think_time`.
    ClosedLoop { population: u32, think_time: Time },
    /// Explicit `(arrival, template index)` list, in submission order.
    Scripted { arrivals: Vec<(Time, usize)> },
}

/// A declarative, seeded job-arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStream {
    /// Arrival-instant generator.
    pub kind: StreamKind,
    /// Master seed; forked, never used directly.
    pub seed: u64,
    /// Candidate workloads (weighted for Poisson / closed-loop picks).
    pub templates: Vec<JobTemplate>,
    /// Total jobs the stream emits (for Scripted this must equal the
    /// arrival list length).
    pub count: u32,
}

/// One materialized arrival: when, and which template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobArrival {
    /// Absolute arrival instant.
    pub at: Time,
    /// Index into [`JobStream::templates`].
    pub template: usize,
}

impl JobStream {
    /// Validate the stream's internal consistency.
    ///
    /// Checks: at least one template, all weights positive, every
    /// template workload valid, all templates on the same OS release
    /// (one shared PFS serves every job), scripted indices in range and
    /// arrivals sorted, and `count` consistent with the kind.
    pub fn validate(&self) -> Result<(), String> {
        if self.templates.is_empty() {
            return Err("job stream needs at least one template".into());
        }
        for (i, t) in self.templates.iter().enumerate() {
            if t.weight == 0 {
                return Err(format!("template {i} ({}) has zero weight", t.label));
            }
            let problems = t.workload.validate();
            if !problems.is_empty() {
                return Err(format!(
                    "template {i} ({}): {}",
                    t.label,
                    problems.join("; ")
                ));
            }
        }
        let os = self.templates[0].workload.os;
        if let Some(t) = self.templates.iter().find(|t| t.workload.os != os) {
            return Err(format!(
                "all templates must target one OS release (shared PFS); {} differs",
                t.label
            ));
        }
        match &self.kind {
            StreamKind::Poisson { mean_interarrival } => {
                if *mean_interarrival == Time::ZERO {
                    return Err("poisson stream needs a positive mean interarrival".into());
                }
            }
            StreamKind::ClosedLoop { population, .. } => {
                if *population == 0 {
                    return Err("closed loop needs a positive population".into());
                }
            }
            StreamKind::Scripted { arrivals } => {
                if arrivals.len() != self.count as usize {
                    return Err(format!(
                        "scripted stream count {} != arrival list length {}",
                        self.count,
                        arrivals.len()
                    ));
                }
                let mut prev = Time::ZERO;
                for (i, (at, template)) in arrivals.iter().enumerate() {
                    if *template >= self.templates.len() {
                        return Err(format!(
                            "scripted arrival {i} references template {template} of {}",
                            self.templates.len()
                        ));
                    }
                    if *at < prev {
                        return Err(format!("scripted arrival {i} goes back in time"));
                    }
                    prev = *at;
                }
            }
        }
        Ok(())
    }

    /// Weighted template pick for arrival `index`; pure in `index`.
    pub(crate) fn pick_template(&self, index: u32) -> usize {
        let total: u64 = self.templates.iter().map(|t| u64::from(t.weight)).sum();
        let mut rng = DetRng::new(self.seed)
            .fork(TEMPLATE_SALT)
            .fork(u64::from(index));
        let mut roll = (rng.unit() * total as f64) as u64;
        if roll >= total {
            roll = total - 1;
        }
        for (i, t) in self.templates.iter().enumerate() {
            let w = u64::from(t.weight);
            if roll < w {
                return i;
            }
            roll -= w;
        }
        self.templates.len() - 1
    }

    /// The arrivals known before the simulation starts.
    ///
    /// Poisson and Scripted streams are fully materialized here; a
    /// closed loop releases its initial `population` at time zero and
    /// feeds the rest through [`Self::next_arrival_after`].
    pub fn initial_arrivals(&self) -> Vec<JobArrival> {
        match &self.kind {
            StreamKind::Poisson { mean_interarrival } => {
                let mean = mean_interarrival.as_secs_f64();
                let mut rng = DetRng::new(self.seed).fork(ARRIVAL_SALT);
                let mut t = Time::ZERO;
                (0..self.count)
                    .map(|i| {
                        if i > 0 {
                            let u = rng.unit();
                            t += Time::from_secs_f64(-mean * (1.0 - u).ln());
                        }
                        JobArrival {
                            at: t,
                            template: self.pick_template(i),
                        }
                    })
                    .collect()
            }
            StreamKind::ClosedLoop { population, .. } => (0..(*population).min(self.count))
                .map(|i| JobArrival {
                    at: Time::ZERO,
                    template: self.pick_template(i),
                })
                .collect(),
            StreamKind::Scripted { arrivals } => arrivals
                .iter()
                .map(|&(at, template)| JobArrival { at, template })
                .collect(),
        }
    }

    /// Closed-loop feedback: the arrival spawned by a completion at
    /// `now`, given `spawned` jobs have been created so far. Returns
    /// `None` for open streams or once `count` is reached.
    pub fn next_arrival_after(&self, spawned: u32, now: Time) -> Option<JobArrival> {
        let StreamKind::ClosedLoop { think_time, .. } = &self.kind else {
            return None;
        };
        if spawned >= self.count {
            return None;
        }
        Some(JobArrival {
            at: now + *think_time,
            template: self.pick_template(spawned),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_workloads::Workload;

    fn tiny_workload(name: &str) -> Workload {
        use sioscope_workloads::program::Stmt;
        Workload {
            name: name.into(),
            version: "test".into(),
            os: sioscope_workloads::OsRelease::Osf12,
            nodes: 2,
            files: Vec::new(),
            programs: vec![
                vec![Stmt::Compute(Time::from_millis(5))],
                vec![Stmt::Compute(Time::from_millis(5))],
            ],
            phases: Vec::new(),
        }
    }

    fn stream(kind: StreamKind, count: u32) -> JobStream {
        JobStream {
            kind,
            seed: 42,
            templates: vec![
                JobTemplate {
                    label: "a".into(),
                    workload: tiny_workload("a"),
                    weight: 3,
                },
                JobTemplate {
                    label: "b".into(),
                    workload: tiny_workload("b"),
                    weight: 1,
                },
            ],
            count,
        }
    }

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let s = stream(
            StreamKind::Poisson {
                mean_interarrival: Time::from_secs(5),
            },
            16,
        );
        s.validate().unwrap();
        let a = s.initial_arrivals();
        let b = s.initial_arrivals();
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert_eq!(a[0].at, Time::ZERO);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn load_scaling_keeps_the_template_sequence() {
        let slow = stream(
            StreamKind::Poisson {
                mean_interarrival: Time::from_secs(10),
            },
            32,
        );
        let fast = JobStream {
            kind: StreamKind::Poisson {
                mean_interarrival: Time::from_secs(5),
            },
            ..slow.clone()
        };
        let a = slow.initial_arrivals();
        let b = fast.initial_arrivals();
        // Same job mix...
        assert_eq!(
            a.iter().map(|j| j.template).collect::<Vec<_>>(),
            b.iter().map(|j| j.template).collect::<Vec<_>>()
        );
        // ...compressed in time.
        assert!(b.last().unwrap().at < a.last().unwrap().at);
    }

    #[test]
    fn template_picks_respect_weights_roughly() {
        let s = stream(
            StreamKind::Poisson {
                mean_interarrival: Time::from_secs(1),
            },
            400,
        );
        let heavy = (0..400).filter(|&i| s.pick_template(i) == 0).count();
        // Weight 3:1 — expect ~300 picks of template 0; allow wide slack.
        assert!((220..=380).contains(&heavy), "heavy = {heavy}");
    }

    #[test]
    fn closed_loop_releases_population_then_feeds_back() {
        let s = stream(
            StreamKind::ClosedLoop {
                population: 3,
                think_time: Time::from_secs(2),
            },
            5,
        );
        s.validate().unwrap();
        let init = s.initial_arrivals();
        assert_eq!(init.len(), 3);
        assert!(init.iter().all(|j| j.at == Time::ZERO));
        let next = s.next_arrival_after(3, Time::from_secs(10)).unwrap();
        assert_eq!(next.at, Time::from_secs(12));
        assert!(s.next_arrival_after(5, Time::from_secs(10)).is_none());
    }

    #[test]
    fn scripted_validates_and_materializes() {
        let s = stream(
            StreamKind::Scripted {
                arrivals: vec![
                    (Time::ZERO, 0),
                    (Time::from_secs(1), 1),
                    (Time::from_secs(3), 0),
                ],
            },
            3,
        );
        s.validate().unwrap();
        let a = s.initial_arrivals();
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].template, 1);

        let bad = stream(
            StreamKind::Scripted {
                arrivals: vec![(Time::ZERO, 7)],
            },
            1,
        );
        assert!(bad.validate().is_err());
        let unsorted = stream(
            StreamKind::Scripted {
                arrivals: vec![(Time::from_secs(2), 0), (Time::from_secs(1), 0)],
            },
            2,
        );
        assert!(unsorted.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_streams() {
        let mut s = stream(
            StreamKind::Poisson {
                mean_interarrival: Time::ZERO,
            },
            4,
        );
        assert!(s.validate().is_err());
        s.kind = StreamKind::Poisson {
            mean_interarrival: Time::from_secs(1),
        };
        s.templates[1].weight = 0;
        assert!(s.validate().is_err());
        s.templates.clear();
        assert!(s.validate().is_err());
    }
}
