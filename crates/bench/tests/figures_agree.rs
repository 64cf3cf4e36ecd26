//! Figures that print the same measured cell print the same number: every
//! figure builds its (model, dataset) cell from one fixture, so the
//! committed `FIGURES.txt` must agree with itself.

const FIGURES: &str = include_str!("../../../FIGURES.txt");

/// The fields after `label` on the first row that starts with the words
/// `label`, below the first line that starts with `section`.
fn row(section: &str, label: &[&str]) -> Vec<&'static str> {
    FIGURES
        .lines()
        .skip_while(|l| !l.starts_with(section))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|fields| fields.starts_with(label))
        .map(|fields| fields[label.len()..].to_vec())
        .unwrap_or_else(|| panic!("no {label:?} row under {section:?}"))
}

#[test]
fn fig8_and_fig9_print_the_same_mistral_longchat_qualities() {
    // `text 3.54s/1.00  quant8 1.68s/0.98  CacheGen 1.09s/0.85`
    let fig8 = row("=== Figure 8", &["Mistral-7B", "LongChat"]);
    let quality = |method: &str| {
        let at = fig8.iter().position(|f| *f == method).expect(method);
        fig8[at + 1].split_once('/').expect("seconds/quality").1
    };
    // Fig. 9 lists mistral-7b-sim first: `<operating point> <bits> <quality>`.
    let fig9 = |label: &[&str]| row("=== Figure 9", label)[1];
    assert_eq!(quality("CacheGen"), fig9(&["CacheGen", "level", "1"]));
    assert_eq!(quality("quant8"), fig9(&["quant", "8-bit"]));
}
