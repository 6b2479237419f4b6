//! Property tests for the lexical masker. The masker is the foundation
//! every rule stands on — a panic or a shape change here silently breaks
//! line numbering for the whole lint — so its invariants get the
//! adversarial-input treatment:
//!
//! * never panics, on arbitrary char soup or on fragment-built sources,
//! * preserves the line count and the char count (and therefore the
//!   byte length for ASCII input),
//! * is idempotent: masking already-masked text changes nothing.

use proptest::prelude::*;
use stilint::mask::mask;

/// Characters that drive the masker's state machine, over-weighted
/// relative to plain letters so random soup actually hits the string /
/// comment / raw-string transitions.
fn char_soup() -> impl Strategy<Value = String> {
    let palette: Vec<char> = vec![
        '"', '\'', '/', '*', '\\', '#', 'r', 'b', '\n', '\n', ' ', ' ', 'a', 'z', '_', '0', '9',
        '{', '}', '(', ')', '[', ']', ';', ':', ',', '.', '!', '<', '>', '=', '&', 'é', '∞',
    ];
    prop::collection::vec(prop::sample::select(palette), 0..200)
        .prop_map(|cs| cs.into_iter().collect())
}

/// Syntactically meaningful fragments, concatenated in random order:
/// deeper state-machine coverage than uniform soup reaches.
fn fragment_source() -> impl Strategy<Value = String> {
    let fragments: Vec<&'static str> = vec![
        "// line comment\n",
        "//! inner doc\n",
        "/// outer doc with `x.unwrap()`\n",
        "/* block */",
        "/* nested /* deeper /* more */ */ still */",
        "/* unterminated",
        "\"plain string\"",
        "\"string with // comment syntax\"",
        "\"string with /* block syntax\"",
        "\"escaped \\\" quote\"",
        "\"trailing backslash \\\\\"",
        "\"unterminated",
        "r\"raw string\"",
        "r#\"raw with \" inside\"#",
        "r##\"raw with \"# inside\"##",
        "b\"byte string\"",
        "br#\"raw bytes\"#",
        "'c'",
        "'\\n'",
        "'\\''",
        "&'a str",
        "'static",
        "fn f() {\n",
        "}\n",
        "let x = 1;\n",
        "x.unwrap();\n",
        "#[test]\n",
        "#[cfg(test)]\nmod tests {\n",
        "idents_and_numbers_123 ",
        "non_ascii_é_∞ ",
        "\n",
    ];
    prop::collection::vec(prop::sample::select(fragments), 0..30).prop_map(|fs| fs.concat())
}

fn assert_mask_invariants(src: &str) {
    let masked = mask(src);
    assert_eq!(
        masked.text.lines().count(),
        src.lines().count(),
        "line count changed for {src:?}"
    );
    assert_eq!(
        masked.text.chars().count(),
        src.chars().count(),
        "char count changed for {src:?}"
    );
    if src.is_ascii() {
        assert_eq!(
            masked.text.len(),
            src.len(),
            "byte length changed for ASCII {src:?}"
        );
    }
    // Idempotence: masked text contains no comments or strings, so a
    // second pass must be the identity.
    let twice = mask(&masked.text);
    assert_eq!(twice.text, masked.text, "not idempotent for {src:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn soup_never_panics_and_preserves_shape(src in char_soup()) {
        assert_mask_invariants(&src);
    }

    #[test]
    fn fragments_never_panic_and_preserve_shape(src in fragment_source()) {
        assert_mask_invariants(&src);
    }
}

#[test]
fn raw_strings_do_not_leak_code() {
    let src = "let s = r#\"x.unwrap() // not code\"#; y.unwrap();\n";
    let m = mask(src);
    // The raw string body is blanked; the real call survives.
    assert!(!m.text.contains("not code"), "{}", m.text);
    assert_eq!(m.text.matches(".unwrap()").count(), 1, "{}", m.text);
    assert!(m.comments.is_empty(), "{:?}", m.comments);
}

#[test]
fn nested_block_comments_track_depth() {
    let src = "/* a /* b */ still comment */ x.unwrap();\n";
    let m = mask(src);
    assert!(!m.text.contains("still"), "{}", m.text);
    assert!(m.text.contains(".unwrap()"), "{}", m.text);
}

#[test]
fn comment_syntax_inside_strings_is_inert() {
    let src = "let s = \"// ordering: \\\"nope\\\"\";\nx.unwrap();\n";
    let m = mask(src);
    assert!(
        m.comments.is_empty(),
        "a string is not a comment: {:?}",
        m.comments
    );
    assert!(m.text.contains(".unwrap()"));
}

#[test]
fn empty_and_whitespace_only_sources() {
    assert_mask_invariants("");
    assert_mask_invariants("\n\n\n");
    assert_mask_invariants("   \t  ");
}
