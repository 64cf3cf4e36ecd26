fn main() {
    let _ = cachegen_codec::USED_BY_THE_BENCHMARK;
}
