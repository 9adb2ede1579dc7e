//! End-to-end runs: system allocator, observability off.

fn main() {
    perfbench::main(false);
}
