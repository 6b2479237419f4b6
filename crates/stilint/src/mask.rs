//! Lexical masking: blank out comments, string/char literals, and
//! lifetimes so the rule matchers only ever see executable tokens.
//!
//! The scanner is deliberately *not* a Rust parser — the workspace is
//! offline, so `syn` is unavailable — but a small character-level state
//! machine is enough to never report a token that only occurs inside a
//! comment, a doc example, or a string literal.

/// A line comment captured during masking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Comment text, `//` prefix included.
    pub text: String,
    /// True when executable code precedes the comment on its line
    /// (a *trailing* comment).
    pub trailing: bool,
}

/// Result of masking one source file.
#[derive(Debug)]
pub struct Masked {
    /// The source with every comment/string/char character replaced by a
    /// space (newlines preserved), so offsets in `lines()` line up with
    /// the original file's lines.
    pub text: String,
    /// Every `//` comment, for the `// bounded:` / `// ordering:` markers.
    pub comments: Vec<Comment>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(usize),
    CharLit,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Detect a raw-string opener (`r"`, `r#"`, `br##"`, …) at position `i`.
/// Returns the number of `#`s and the index of the opening quote.
fn raw_string_open(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j))
    } else {
        None
    }
}

/// True when the `'` at `i` starts a char literal rather than a lifetime.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Mask `src`, blanking everything that is not executable code.
pub fn mask(src: &str) -> Masked {
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut comments = Vec::new();
    let mut state = State::Code;
    let mut line = 1usize;
    let mut line_has_code = false;
    let mut current: Option<Comment> = None;

    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                if let Some(cm) = current.take() {
                    comments.push(cm);
                }
                state = State::Code;
            }
            out.push('\n');
            line += 1;
            line_has_code = false;
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    current = Some(Comment {
                        line,
                        text: String::new(),
                        trailing: line_has_code,
                    });
                    // fall through: the comment chars are consumed by the
                    // LineComment arm below on the next iterations; mask
                    // the two slashes here.
                    if let Some(cm) = current.as_mut() {
                        cm.text.push_str("//");
                    }
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    out.push(' ');
                    line_has_code = true;
                    i += 1;
                } else if (c == 'r' || c == 'b')
                    && (i == 0 || !is_ident(chars[i - 1]))
                    && raw_string_open(&chars, i).is_some()
                {
                    if let Some((hashes, quote)) = raw_string_open(&chars, i) {
                        for _ in i..=quote {
                            out.push(' ');
                        }
                        line_has_code = true;
                        state = State::RawStr(hashes);
                        i = quote + 1;
                    }
                } else if c == 'b'
                    && chars.get(i + 1) == Some(&'"')
                    && (i == 0 || !is_ident(chars[i - 1]))
                {
                    out.push(' ');
                    out.push(' ');
                    line_has_code = true;
                    state = State::Str;
                    i += 2;
                } else if c == '\'' {
                    if is_char_literal(&chars, i) {
                        state = State::CharLit;
                        out.push(' ');
                        line_has_code = true;
                        i += 1;
                    } else {
                        // Lifetime: keep the tick and let the identifier
                        // pass through as code.
                        out.push('\'');
                        line_has_code = true;
                        i += 1;
                    }
                } else {
                    if !c.is_whitespace() {
                        line_has_code = true;
                    }
                    out.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                if let Some(cm) = current.as_mut() {
                    cm.text.push(c);
                }
                out.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth > 1 {
                        State::BlockComment(depth - 1)
                    } else {
                        State::Code
                    };
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    out.push(' ');
                    if chars.get(i + 1).is_some() && chars[i + 1] != '\n' {
                        out.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    state = State::Code;
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..=hashes {
                            out.push(' ');
                        }
                        state = State::Code;
                        i += 1 + hashes;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            State::CharLit => {
                if c == '\\' {
                    out.push(' ');
                    if chars.get(i + 1).is_some() && chars[i + 1] != '\n' {
                        out.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '\'' {
                    state = State::Code;
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        }
    }
    if state == State::LineComment {
        if let Some(cm) = current.take() {
            comments.push(cm);
        }
    }
    Masked {
        text: out,
        comments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_and_doc_comments() {
        let m = mask("let x = 1; // call .unwrap() here\n/// docs .expect(\nlet y = 2;\n");
        assert!(!m.text.contains("unwrap"));
        assert!(!m.text.contains("expect"));
        assert!(m.text.contains("let x = 1;"));
        assert!(m.text.contains("let y = 2;"));
        assert_eq!(m.comments.len(), 2);
        assert!(m.comments[0].trailing);
        assert!(!m.comments[1].trailing);
    }

    #[test]
    fn masks_nested_block_comments() {
        let m = mask("a /* outer /* inner panic!() */ still */ b\n");
        assert!(!m.text.contains("panic"));
        assert!(m.text.contains('a'));
        assert!(m.text.contains('b'));
    }

    #[test]
    fn masks_strings_with_escapes() {
        let m = mask(r#"let s = "quote \" panic!() end"; done()"#);
        assert!(!m.text.contains("panic"));
        assert!(m.text.contains("done()"));
    }

    #[test]
    fn masks_raw_strings() {
        let m = mask("let s = r#\"panic!() \"# ; after()\n");
        assert!(!m.text.contains("panic"));
        assert!(m.text.contains("after()"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let m = mask("fn f<'a>(x: &'a str) { let c = '\"'; let d = 'x'; g(x) }\n");
        assert!(m.text.contains("<'a>"));
        assert!(m.text.contains("g(x)"));
        // literal contents are blanked
        assert!(!m.text.contains("'x'"));
        // the masked quote must not open a string state that swallows code
        assert!(m.text.contains("let d ="));
    }

    #[test]
    fn newlines_keep_line_numbers_aligned() {
        let src = "a\n/* two\nlines */\nb\n";
        let m = mask(src);
        assert_eq!(m.text.matches('\n').count(), src.matches('\n').count());
        let lines: Vec<&str> = m.text.lines().collect();
        assert_eq!(lines[0].trim(), "a");
        assert_eq!(lines[3].trim(), "b");
    }

    #[test]
    fn comment_text_is_captured_for_directives() {
        let m = mask("x.store(0, Ordering::Release); // ordering: pairs with the load\n");
        assert_eq!(m.comments.len(), 1);
        assert!(m.comments[0].text.contains("ordering: pairs"));
    }
}
