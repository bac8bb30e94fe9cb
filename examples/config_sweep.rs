//! Machine-configuration sensitivity study — the paper's §7 future
//! work ("examine the effects of different machine configurations,
//! e.g., number of I/O nodes, and different architectures on I/O
//! performance"), run on the reproduced workloads.
//!
//! ```text
//! cargo run --release --example config_sweep
//! ```

use sioscope::canon::WorkloadId;
use sioscope::experiments::Scale;
use sioscope::sweeps::{disk_bandwidth_sweep, io_node_sweep, stripe_sweep};

fn main() {
    let scale = Scale::from_env();

    println!("== I/O-node scaling (ESCAT B: the all-node staging workload) ==\n");
    let sweep = io_node_sweep(WorkloadId::EscatB, scale, &[2, 4, 8, 16, 32]);
    println!("{}", sweep.render());
    println!(
        "I/O-time speedup 2 -> best: {:.2}x\n",
        sweep.best_io_speedup()
    );

    println!("== Stripe-unit sensitivity (ESCAT B tuned to 64 KB stripes) ==\n");
    let sweep = stripe_sweep(
        WorkloadId::EscatB,
        scale,
        &[16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10],
    );
    println!("{}", sweep.render());
    println!(
        "The 128 KB M_RECORD reloads are stripe-multiples only at <=64 KB units —\n\
         §6.2's point that application tuning is coupled to file-system constants.\n"
    );

    println!("== Disk-generation sweep (PRISM A: open/read-bound) ==\n");
    let sweep = disk_bandwidth_sweep(WorkloadId::PrismA, scale, &[2, 4, 8, 16, 32]);
    println!("{}", sweep.render());
    println!(
        "Faster arrays barely help version A: its bottleneck is serialized\n\
         metadata and small reads, not transfer bandwidth — the paper's core\n\
         argument for fixing file-system policy rather than buying disks."
    );
}
