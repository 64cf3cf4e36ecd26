//! One function per paper table/figure; [`ALL`] is the index and [`run`]
//! the dispatch.

mod adaptation;
mod cost;
mod insights;
mod intrusive;
mod loss;
mod overall;
mod overheads;
mod sensitivity;
mod serving;

/// All experiment names, in paper order ("serving" and "loss_sweep"
/// extend the paper with the sharded multi-tenant front and the
/// loss-resilient transport).
pub const ALL: &[&str] = &[
    "table1",
    "table2",
    "fig3",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "appE",
    "serving",
    "loss_sweep",
    "loss_sweep_fast",
];

/// Runs one experiment by name; panics on unknown names (the binary
/// validates first).
pub fn run(name: &str) {
    match name {
        "table1" => overall::table1(),
        "table2" => insights::table2(),
        "fig3" => insights::fig3(),
        "fig4" => insights::fig4(),
        "fig5" => insights::fig5(),
        "fig7" => adaptation::fig7(),
        "fig8" => overall::fig8(),
        "fig9" => overall::fig9(),
        "fig10" => overall::fig10(),
        "fig11" => sensitivity::fig11(),
        "fig12" => sensitivity::fig12(),
        "fig13" => adaptation::fig13(),
        "fig14" => overheads::fig14(),
        "fig15" => overheads::fig15(),
        "fig16" => overheads::fig16(),
        "fig17" => overheads::fig17(),
        "fig18" => intrusive::fig18(),
        "fig19" => sensitivity::fig19(),
        "appE" => cost::app_e(),
        "serving" => serving::serving(),
        "loss_sweep" => loss::loss_sweep(),
        "loss_sweep_fast" => loss::loss_sweep_fast(),
        other => panic!("unknown experiment {other}; valid: {ALL:?}"),
    }
}
