fn main() {
    cachegen_codec::used_by_an_example();
}
