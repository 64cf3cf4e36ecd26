//! Known-bad fixture: raw thread spawns outside the executor module.
//! The same content is clean when analyzed under the executor's path.

pub fn fan_out() {
    let handle = std::thread::spawn(|| 1 + 1); // line 5: flagged
    std::thread::scope(|_s| ()); // line 6: flagged (scoped spawns too)
    let _ = handle.join();
}
