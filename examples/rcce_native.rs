//! Runs a *hand-written* RCCE program — not one produced by the
//! translator — demonstrating that the simulated SCC and its RCCE runtime
//! are a usable target in their own right: message passing with
//! `RCCE_send`/`RCCE_recv`, flag signalling, and MPB allocation.
//!
//! The program is a ring reduction: each core sends its partial sum to
//! core 0 through the ring, core 0 prints the total.
//!
//! ```text
//! cargo run --example rcce_native
//! ```

use hsm_exec::{ExecModel, NullSink, RunSpec, Units};

const RING_REDUCE: &str = r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    int myID;
    myID = RCCE_ue();
    int n;
    n = RCCE_num_ues();

    int value[1];
    int acc[1];
    value[0] = (myID + 1) * (myID + 1);
    acc[0] = value[0];

    if (myID == 0) {
        int received[1];
        int i;
        for (i = 1; i < n; i++) {
            RCCE_recv(received, 4, i);
            acc[0] = acc[0] + received[0];
        }
        printf("ring reduce over %d cores: %d\n", n, acc[0]);
    } else {
        RCCE_send(value, 4, 0);
    }

    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return acc[0];
}
"#;

const PINGPONG: &str = r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    int myID;
    myID = RCCE_ue();
    char buf[1024];
    double t0 = RCCE_wtime();
    int r;
    for (r = 0; r < 16; r++) {
        if (myID == 0) {
            RCCE_send(buf, 1024, 1);
            RCCE_recv(buf, 1024, 1);
        }
        if (myID == 1) {
            RCCE_recv(buf, 1024, 0);
            RCCE_send(buf, 1024, 0);
        }
    }
    double t1 = RCCE_wtime();
    if (myID == 0) {
        double us = (t1 - t0) * 1000000.0 / 32.0;
        printf("1 KB one-way latency: %.2f us\n", us);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}
"#;

fn run(src: &str, cores: usize) -> Result<hsm_exec::RunResult, Box<dyn std::error::Error>> {
    let program = hsm_vm::compile(&hsm_cir::parse(src)?)?;
    let config = scc_sim::SccConfig::table_6_1();
    let spec = RunSpec::new(config, Units::Rcce { cores }, ExecModel::Coherent);
    Ok(hsm_exec::run(&program, &spec, &mut NullSink)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== ring reduction, 8 cores ==");
    let r = run(RING_REDUCE, 8)?;
    print!("{}", r.output_text());
    // Σ (i+1)² for i in 0..8 = 1+4+9+...+64 = 204.
    assert_eq!(r.exit_code, 204);
    println!("  ({} simulated cycles)\n", r.total_cycles);

    println!("== 1 KB ping-pong between two cores ==");
    let r = run(PINGPONG, 2)?;
    print!("{}", r.output_text());
    println!("  ({} simulated cycles)", r.total_cycles);
    Ok(())
}
