// only_in_prose is named here in a comment,
const PROSE: &str = "and only_in_prose here in a string: neither is a call";

#[test]
fn names_it() {
    cachegen_codec::used_by_a_test();
}
