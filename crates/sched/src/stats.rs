//! Per-job outcomes and schedule-level aggregates.
//!
//! The slowdown vocabulary follows the batch-scheduling literature:
//!
//! * **wait** — time from arrival until the job's partition is first
//!   granted;
//! * **response** — arrival to finish, including every requeued attempt;
//! * **stretch** — response divided by the job's *dedicated-mode*
//!   execution time (the whole machine to itself);
//! * **bounded slowdown** — `max(1, response / max(dedicated, tau))`,
//!   which stops sub-`tau` jobs from dominating the mean. The
//!   conventional threshold `DEFAULT_BSLD_TAU` is ten seconds.

use sioscope_sim::{JobId, Time};

/// Conventional bounded-slowdown threshold: ten seconds.
pub(crate) const DEFAULT_BSLD_TAU: Time = Time::from_secs(10);

/// Everything the scheduler learned about one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Scheduler-assigned identity (arrival order).
    pub job: JobId,
    /// Template label the job was instantiated from.
    pub label: String,
    /// Index into the stream's template list.
    pub template: usize,
    /// Compute nodes the job's partition holds.
    pub nodes: u32,
    /// When the job entered the queue.
    pub arrival: Time,
    /// When its partition was first granted (first attempt's start).
    pub first_start: Time,
    /// When its final attempt finished.
    pub finish: Time,
    /// Dedicated-mode execution time (EASY estimate and the stretch /
    /// bounded-slowdown denominator).
    pub dedicated: Time,
    /// Number of attempts (1 unless crashes forced requeues).
    pub attempts: u32,
    /// Aggregate I/O time across the job's nodes (final attempt).
    pub io_time: Time,
    /// Simulator events consumed by the job (final attempt).
    pub events: u64,
}

impl JobOutcome {
    /// Queue wait: arrival until the partition was first granted.
    pub fn wait(&self) -> Time {
        self.first_start.saturating_sub(self.arrival)
    }

    /// Response time: arrival to final finish.
    pub fn response(&self) -> Time {
        self.finish.saturating_sub(self.arrival)
    }

    /// Response over dedicated-mode execution time.
    pub fn stretch(&self) -> f64 {
        let d = self.dedicated.as_secs_f64();
        if d <= 0.0 {
            return 1.0;
        }
        self.response().as_secs_f64() / d
    }

    /// Bounded slowdown with threshold `tau`.
    pub(crate) fn bounded_slowdown(&self, tau: Time) -> f64 {
        let denom = self.dedicated.max(tau).as_secs_f64();
        if denom <= 0.0 {
            return 1.0;
        }
        (self.response().as_secs_f64() / denom).max(1.0)
    }
}

/// Aggregate results of one scheduled run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleStats {
    /// Queue policy label ("fcfs" / "easy-backfill").
    pub policy: String,
    /// First arrival to last finish.
    pub makespan: Time,
    /// Simulator events consumed across all jobs and attempts.
    pub total_events: u64,
    /// Per-job outcomes, in arrival (JobId) order.
    pub jobs: Vec<JobOutcome>,
    /// Per-I/O-node busy fraction over the makespan.
    pub ion_utilization: Vec<f64>,
}

impl ScheduleStats {
    fn mean_of(&self, f: impl Fn(&JobOutcome) -> f64) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(f).sum::<f64>() / self.jobs.len() as f64
    }

    /// Mean queue wait in seconds.
    pub fn mean_wait(&self) -> f64 {
        self.mean_of(|j| j.wait().as_secs_f64())
    }

    /// Mean stretch (response / dedicated).
    pub(crate) fn mean_stretch(&self) -> f64 {
        self.mean_of(|j| j.stretch())
    }

    /// Mean bounded slowdown with threshold `tau`.
    pub(crate) fn mean_bounded_slowdown(&self, tau: Time) -> f64 {
        self.mean_of(|j| j.bounded_slowdown(tau))
    }

    /// Mean bounded slowdown over jobs from one template, or `None` if
    /// the schedule ran none of them.
    pub fn mean_bounded_slowdown_of(&self, template: usize, tau: Time) -> Option<f64> {
        let picked: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| j.template == template)
            .map(|j| j.bounded_slowdown(tau))
            .collect();
        if picked.is_empty() {
            return None;
        }
        Some(picked.iter().sum::<f64>() / picked.len() as f64)
    }

    /// Human-readable table of the schedule.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "policy {}  jobs {}  makespan {}  events {}\n",
            self.policy,
            self.jobs.len(),
            self.makespan,
            self.total_events
        ));
        out.push_str(&format!(
            "mean wait {:.3}s  mean stretch {:.3}  mean bsld {:.3}\n",
            self.mean_wait(),
            self.mean_stretch(),
            self.mean_bounded_slowdown(DEFAULT_BSLD_TAU)
        ));
        out.push_str(
            "job        label            nodes  arrival      wait        response    bsld   att\n",
        );
        for j in &self.jobs {
            out.push_str(&format!(
                "{:<10} {:<16} {:>5}  {:>10.3}s  {:>9.3}s  {:>9.3}s  {:>5.2}  {:>3}\n",
                j.job.to_string(),
                j.label,
                j.nodes,
                j.arrival.as_secs_f64(),
                j.wait().as_secs_f64(),
                j.response().as_secs_f64(),
                j.bounded_slowdown(DEFAULT_BSLD_TAU),
                j.attempts,
            ));
        }
        if !self.ion_utilization.is_empty() {
            let mean = self.ion_utilization.iter().sum::<f64>() / self.ion_utilization.len() as f64;
            out.push_str(&format!(
                "ion utilization: mean {:.1}%  per-node [{}]\n",
                mean * 100.0,
                self.ion_utilization
                    .iter()
                    .map(|u| format!("{:.1}%", u * 100.0))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(arrival: u64, start: u64, finish: u64, dedicated: u64) -> JobOutcome {
        JobOutcome {
            job: JobId(0),
            label: "t".into(),
            template: 0,
            nodes: 4,
            arrival: Time::from_secs(arrival),
            first_start: Time::from_secs(start),
            finish: Time::from_secs(finish),
            dedicated: Time::from_secs(dedicated),
            attempts: 1,
            io_time: Time::ZERO,
            events: 10,
        }
    }

    #[test]
    fn wait_response_stretch() {
        let j = job(10, 25, 85, 30);
        assert_eq!(j.wait(), Time::from_secs(15));
        assert_eq!(j.response(), Time::from_secs(75));
        assert!((j.stretch() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bounded_slowdown_floors_at_one_and_respects_tau() {
        // Short job: dedicated 2s < tau 10s, response 5s -> 5/10 < 1 -> 1.
        let short = job(0, 0, 5, 2);
        assert_eq!(short.bounded_slowdown(DEFAULT_BSLD_TAU), 1.0);
        // Plain stretch would have said 2.5.
        assert!((short.stretch() - 2.5).abs() < 1e-12);
        // Long job: tau has no effect.
        let long = job(0, 20, 80, 40);
        assert!((long.bounded_slowdown(DEFAULT_BSLD_TAU) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn schedule_means_and_template_filter() {
        let mut a = job(0, 0, 40, 20);
        a.template = 0;
        let mut b = job(0, 20, 100, 20);
        b.template = 1;
        let stats = ScheduleStats {
            policy: "fcfs".into(),
            makespan: Time::from_secs(100),
            total_events: 20,
            jobs: vec![a, b],
            ion_utilization: vec![0.5, 0.25],
        };
        assert!((stats.mean_wait() - 10.0).abs() < 1e-12);
        assert!((stats.mean_stretch() - 3.5).abs() < 1e-12);
        let t0 = stats.mean_bounded_slowdown_of(0, DEFAULT_BSLD_TAU).unwrap();
        let t1 = stats.mean_bounded_slowdown_of(1, DEFAULT_BSLD_TAU).unwrap();
        assert!((t0 - 2.0).abs() < 1e-12);
        assert!((t1 - 5.0).abs() < 1e-12);
        assert!(stats
            .mean_bounded_slowdown_of(2, DEFAULT_BSLD_TAU)
            .is_none());
        let rendered = stats.render();
        assert!(rendered.contains("policy fcfs"));
        assert!(rendered.contains("ion utilization"));
    }

    #[test]
    fn empty_schedule_is_all_zero() {
        let stats = ScheduleStats {
            policy: "fcfs".into(),
            makespan: Time::ZERO,
            total_events: 0,
            jobs: Vec::new(),
            ion_utilization: Vec::new(),
        };
        assert_eq!(stats.mean_wait(), 0.0);
        assert_eq!(stats.mean_stretch(), 0.0);
        assert_eq!(stats.mean_bounded_slowdown(DEFAULT_BSLD_TAU), 0.0);
    }
}
