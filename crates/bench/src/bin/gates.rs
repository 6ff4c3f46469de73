//! The exact-count CI gate: drives every mechanism in
//! [`osiris_bench::gates`] under a counting allocator, prints each row that
//! does not hold and exits 1 if there is one. Takes no arguments, reads no
//! clock and writes no file.

osiris_bench::counting_allocator!();

fn main() {
    let rows = osiris_bench::gates::run(osiris_bench::gates::Scale::Full, Some(alloc_calls));
    let failed: Vec<_> = rows.iter().filter(|c| !c.holds()).collect();
    for check in &failed {
        eprintln!("FAIL {check}");
    }
    if !failed.is_empty() {
        eprintln!("gates: {} of {} checks failed", failed.len(), rows.len());
        std::process::exit(1);
    }
    println!("gates: all {} checks hold", rows.len());
}
