//! The traced pass: counting allocator, global registry on, one span per
//! layer call.

#[global_allocator]
static ALLOC: icn_obs::CountingAlloc = icn_obs::CountingAlloc::system();

fn main() {
    perfbench::main(true);
}
