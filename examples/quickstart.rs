//! Quickstart: the paper's running example, end to end.
//!
//! Parses Example Code 4.1, runs analysis stages 1–3 (printing Tables 4.1
//! and 4.2), translates it to RCCE C (Example Code 4.2), and executes both
//! versions on the simulated SCC.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use hsm_core::api::{Mode, Pipeline};
use hsm_core::experiment;

const EXAMPLE_4_1: &str = r#"
#include <stdio.h>
#include <pthread.h>

int global;
int *ptr;
int sum[3] = {0};

void *tf(void * tid) {
    int tLocal = (int)tid;
    sum[tLocal] += tLocal;
    sum[tLocal] += *ptr;
    pthread_exit(NULL);
}

int main() {
    int local = 0;
    int tmp = 1;
    ptr = &tmp;
    pthread_t threads[3];
    int rc;
    for(local = 0; local < 3; local++) {
        rc = pthread_create(&threads[local], NULL, tf, (void *) local);
    }
    for(local = 0; local < 3; local++) {
        pthread_join(threads[local], NULL);
        printf("Sum Array: %d\n", sum[local]);
    }
    return 0;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One artifact-reuse session drives the whole example: every stage
    // below is computed once and memoized in the session cache.
    let session = Pipeline::new(EXAMPLE_4_1).cores(3);

    // 1. Parse into the C intermediate representation.
    let tu = session.unit()?;
    println!(
        "parsed {} functions, {} globals\n",
        tu.functions().count(),
        tu.global_decls().count()
    );

    // 2. Stages 1-3: scope, inter-thread and points-to analysis.
    let analysis = session.analysis()?;
    println!(
        "Table 4.1 — per-variable facts:\n{}",
        analysis.render_table_4_1()
    );
    println!(
        "Table 4.2 — sharing status by stage:\n{}",
        analysis.render_table_4_2()
    );

    // 3. Stages 4-5: partition shared data and translate to RCCE (the
    //    cached parse and analysis above feed straight into this).
    let translated = session.translation()?.to_source();
    println!("Example Code 4.2 — translated RCCE source:\n{translated}");

    // 4. Execute both versions on the simulated SCC (3 threads vs 3 cores).
    let baseline = session
        .clone()
        .scenario(Mode::PthreadBaseline.into())
        .run_scenario()?;
    let rcce = session.run_scenario()?;
    println!(
        "pthread (1 core, 3 threads): {} cycles",
        baseline.total_cycles
    );
    println!("   output: {:?}", baseline.output_sorted());
    println!("RCCE     (3 cores):          {} cycles", rcce.total_cycles);
    println!("   output: {:?}", rcce.output_sorted());
    assert!(experiment::outputs_equivalent(&baseline, &rcce));
    println!("\noutputs are equivalent — the translation preserved semantics");
    Ok(())
}
