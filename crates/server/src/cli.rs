//! A strict `--flag value` parser shared by every binary in the
//! workspace (`stidx`, `sti-server`, `sti-load`), and the one parser of
//! a query area.
//!
//! The predecessor parser accepted any `--key value` pair, so a typo
//! like `--commit-evry 8` silently fell back to the default commit
//! cadence. Here every flag must come from the caller's declared set,
//! duplicates are refused, and an unknown flag's error names the
//! nearest valid one.

use sti_geom::Rect2;

/// Parsed flags: `--key value` pairs plus bare `--switch`es.
#[derive(Debug, Default, Clone)]
pub struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// The value of `--key`, when given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value of a required `--key`.
    ///
    /// # Errors
    /// Names the missing flag.
    pub fn need(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// True when the bare switch `--key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Parse `--key`'s value, with a flag-naming error message.
    ///
    /// # Errors
    /// Names the flag and the expected shape on a parse failure.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot parse {raw:?}")),
        }
    }
}

/// Parse `args` against a declared flag vocabulary: `value_keys` take a
/// value (`--key value` or `--key=value`), `switch_keys` stand alone.
///
/// # Errors
/// - a non-`--` argument,
/// - an unknown flag (the message suggests the nearest valid one),
/// - a duplicated flag,
/// - a value flag without a value, or a switch given one via `=`.
pub fn parse_flags(
    args: &[String],
    value_keys: &[&str],
    switch_keys: &[&str],
) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(body) = arg.strip_prefix("--") else {
            return Err(format!("expected a --flag, got {arg}"));
        };
        let (name, inline_value) = match body.split_once('=') {
            Some((n, v)) => (n, Some(v)),
            None => (body, None),
        };
        if flags.get(name).is_some() || flags.has(name) {
            return Err(format!("duplicate flag --{name}"));
        }
        if value_keys.contains(&name) {
            let value = match inline_value {
                Some(v) => v.to_string(),
                None => it
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone(),
            };
            flags.values.push((name.to_string(), value));
        } else if switch_keys.contains(&name) {
            if inline_value.is_some() {
                return Err(format!("--{name} is a bare switch and takes no value"));
            }
            flags.switches.push(name.to_string());
        } else {
            return Err(unknown_flag_message(name, value_keys, switch_keys));
        }
    }
    Ok(flags)
}

/// "unknown flag --x", plus either the closest valid flag (when the
/// typo is close enough for the suggestion to be meaningful) or the
/// full valid set.
fn unknown_flag_message(name: &str, value_keys: &[&str], switch_keys: &[&str]) -> String {
    let all: Vec<&str> = value_keys.iter().chain(switch_keys).copied().collect();
    let nearest = all
        .iter()
        .map(|k| (edit_distance(name, k), *k))
        .min_by_key(|(d, _)| *d);
    match nearest {
        // A suggestion only helps when the distance is small relative
        // to the flag — "did you mean --out?" for `--frobnicate` would
        // be noise.
        Some((d, k)) if d <= (k.chars().count() / 3).max(2) => {
            format!("unknown flag --{name} (did you mean --{k}?)")
        }
        _ if all.is_empty() => format!("unknown flag --{name} (this command takes no flags)"),
        _ => {
            let listed: Vec<String> = all.iter().map(|k| format!("--{k}")).collect();
            format!("unknown flag --{name} (valid: {})", listed.join(", "))
        }
    }
}

/// Levenshtein distance, two-row dynamic program.
fn edit_distance(a: &str, b: &str) -> usize {
    let b_chars: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b_chars.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut cur = Vec::with_capacity(prev.len());
        cur.push(i + 1);
        for (j, &cb) in b_chars.iter().enumerate() {
            let delete = prev
                .get(j + 1)
                .copied()
                .unwrap_or(usize::MAX)
                .saturating_add(1);
            let insert = cur.last().copied().unwrap_or(usize::MAX).saturating_add(1);
            let substitute = prev
                .get(j)
                .copied()
                .unwrap_or(usize::MAX)
                .saturating_add(usize::from(ca != cb));
            cur.push(delete.min(insert).min(substitute));
        }
        prev = cur;
    }
    prev.last().copied().unwrap_or(usize::MAX)
}

/// `x0,y0,x1,y1` → a validated [`Rect2`]: four finite coordinates,
/// corners not reversed. `stidx --area` and the server's `area=` both
/// parse through here.
pub fn parse_area(raw: &str) -> Result<Rect2, String> {
    let parts: Vec<f64> = raw
        .split(',')
        .map(|p| {
            p.trim()
                .parse::<f64>()
                .map_err(|_| format!("bad coordinate {p:?} in area"))
                .and_then(|v| {
                    if v.is_finite() {
                        Ok(v)
                    } else {
                        Err("area coordinates must be finite".to_string())
                    }
                })
        })
        .collect::<Result<_, _>>()?;
    match parts.as_slice() {
        &[x0, y0, x1, y1] => {
            if x0 > x1 || y0 > y1 {
                return Err("area corners are reversed".to_string());
            }
            Ok(Rect2::from_bounds(x0, y0, x1, y1))
        }
        _ => Err("area takes exactly x0,y0,x1,y1".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_values_switches_and_equals_form() {
        let f = parse_flags(
            &args(&["--out", "x.idx", "--seed=7", "--verbose"]),
            &["out", "seed"],
            &["verbose"],
        )
        .unwrap();
        assert_eq!(f.get("out"), Some("x.idx"));
        assert_eq!(f.get("seed"), Some("7"));
        assert!(f.has("verbose"));
        assert!(!f.has("out"));
        assert_eq!(f.parsed::<u64>("seed").unwrap(), Some(7));
    }

    #[test]
    fn unknown_flag_names_the_nearest_valid_one() {
        let err = parse_flags(
            &args(&["--commit-evry", "8"]),
            &["commit-every", "out"],
            &[],
        )
        .unwrap_err();
        assert_eq!(
            err,
            "unknown flag --commit-evry (did you mean --commit-every?)"
        );
    }

    #[test]
    fn unknown_flag_far_from_everything_lists_the_valid_set() {
        let err = parse_flags(&args(&["--frobnicate", "8"]), &["out", "seed"], &[]).unwrap_err();
        assert_eq!(err, "unknown flag --frobnicate (valid: --out, --seed)");
    }

    #[test]
    fn duplicate_flags_are_refused() {
        let err = parse_flags(&args(&["--out", "a", "--out", "b"]), &["out"], &[]).unwrap_err();
        assert_eq!(err, "duplicate flag --out");
        let err = parse_flags(&args(&["--out", "a", "--out=b"]), &["out"], &[]).unwrap_err();
        assert_eq!(err, "duplicate flag --out");
    }

    #[test]
    fn missing_value_and_bare_arguments_are_refused() {
        assert_eq!(
            parse_flags(&args(&["--out"]), &["out"], &[]).unwrap_err(),
            "--out needs a value"
        );
        assert_eq!(
            parse_flags(&args(&["out.idx"]), &["out"], &[]).unwrap_err(),
            "expected a --flag, got out.idx"
        );
        assert_eq!(
            parse_flags(&args(&["--verbose=yes"]), &[], &["verbose"]).unwrap_err(),
            "--verbose is a bare switch and takes no value"
        );
    }

    #[test]
    fn parsed_reports_the_flag_and_raw_value() {
        let f = parse_flags(&args(&["--seed", "seven"]), &["seed"], &[]).unwrap();
        assert_eq!(
            f.parsed::<u64>("seed").unwrap_err(),
            "--seed: cannot parse \"seven\""
        );
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("commit-evry", "commit-every"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
