//! Extraction of the netlist JSON from a raw language-model response.
//!
//! The system prompt asks the model to answer in two sections —
//! `<analysis>` prose and a `<result>` holding only the JSON netlist.
//! Real model output nevertheless arrives with markdown fences, stray
//! prose, or missing tags; the paper's "Extra contents found in JSON"
//! failure type exists precisely because of this.
//!
//! [`extract_payload`] locates the JSON document and reports what else it
//! found, so the evaluator can decide whether the surrounding noise
//! constitutes a classified failure.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// The result of scanning a response for its JSON payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedPayload {
    /// The JSON substring (from first `{` to its matching `}`).
    pub json: String,
    /// Whether a `<result>` section was present.
    pub had_result_tag: bool,
    /// Whether the payload was wrapped in markdown code fences.
    pub had_code_fence: bool,
    /// Non-whitespace text found around the JSON inside the result section
    /// (prose, advice, fence language tags are *not* counted).
    pub extra_content: Option<String>,
}

impl ExtractedPayload {
    /// Whether anything beyond the bare JSON appeared in the result
    /// section — the trigger for the "Extra contents found in JSON"
    /// failure type.
    pub fn has_extra_content(&self) -> bool {
        self.had_code_fence || self.extra_content.is_some()
    }
}

/// Error when no JSON document can be located at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractError {
    /// Short reason.
    pub reason: &'static str,
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "could not locate a JSON netlist in the response: {}",
            self.reason
        )
    }
}

impl Error for ExtractError {}

/// Byte offset of the first case-insensitive match of the ASCII `tag`.
/// Matching the original bytes (never a lowercased copy, whose byte
/// offsets can differ) keeps every offset on a char boundary: a match
/// starts at an ASCII `<`.
fn find_tag(text: &str, tag: &str) -> Option<usize> {
    text.match_indices('<').map(|(i, _)| i).find(|&i| {
        text.as_bytes()
            .get(i..i + tag.len())
            .is_some_and(|window| window.eq_ignore_ascii_case(tag.as_bytes()))
    })
}

/// Finds the `<result>` section if present, returning `(section, found)`.
fn result_section(text: &str) -> (&str, bool) {
    if let Some(start) = find_tag(text, "<result>") {
        let after = start + "<result>".len();
        let end = find_tag(&text[after..], "</result>")
            .map(|e| after + e)
            .unwrap_or(text.len());
        (&text[after..end], true)
    } else {
        (text, false)
    }
}

/// The bytes of `word` that can change the brace scanner's state
/// (quotes, backslashes and braces), as a mask with the high bit of each
/// such byte set.
fn special_bytes(word: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    let equal_to = |b: u8| {
        let x = word ^ (ONES * u64::from(b));
        // The high bit of exactly the bytes of `x` that are zero.
        !(((x & LOW7) + LOW7) | x | LOW7)
    };
    equal_to(b'"') | equal_to(b'\\') | equal_to(b'{') | equal_to(b'}')
}

/// Finds the span of the first balanced `{ … }` block, respecting strings.
///
/// The text is read eight bytes at a time; only the quotes, backslashes
/// and braces among them are visited one by one.
fn brace_span(text: &str) -> Option<(usize, usize)> {
    let bytes = text.as_bytes();
    let start = text.find('{')?;
    let mut depth = 0usize;
    let mut in_string = false;
    // The byte after a backslash inside a string, which it escapes.
    let mut escaped = usize::MAX;
    for (chunk, word) in bytes[start..].chunks(8).enumerate() {
        let base = start + 8 * chunk;
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        let mut mask = special_bytes(u64::from_le_bytes(padded));
        while mask != 0 {
            let i = base + (mask.trailing_zeros() / 8) as usize;
            mask &= mask - 1;
            match (in_string, bytes[i]) {
                _ if i == escaped => {}
                (true, b'\\') => escaped = i + 1,
                (true, b'"') => in_string = false,
                (false, b'"') => in_string = true,
                (false, b'{') => depth += 1,
                (false, b'}') => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((start, i + 1));
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Strips markdown code fences from around (but not inside) a block of
/// text, reporting whether any were found.
///
/// Text with neither a backtick nor a carriage return is borrowed as is:
/// rebuilding it line by line would only append a final newline, which
/// moves no brace span and trims away from the surrounding text.
fn strip_fences(text: &str) -> (Cow<'_, str>, bool) {
    if !text.contains('`') && !text.contains('\r') {
        return (Cow::Borrowed(text), false);
    }
    let mut found = false;
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") {
            found = true;
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    (Cow::Owned(out), found)
}

/// Locates the JSON payload in a raw response.
///
/// # Errors
///
/// Returns [`ExtractError`] when the response contains no `{…}` block at
/// all (truncated or purely prose responses).
///
/// # Examples
///
/// ```
/// use picbench_netlist::extract::extract_payload;
///
/// let response = "<analysis>step by step…</analysis>\n<result>\n{\"a\": 1}\n</result>";
/// let payload = extract_payload(response)?;
/// assert_eq!(payload.json, "{\"a\": 1}");
/// assert!(payload.had_result_tag);
/// assert!(!payload.has_extra_content());
/// # Ok::<(), picbench_netlist::extract::ExtractError>(())
/// ```
pub fn extract_payload(response: &str) -> Result<ExtractedPayload, ExtractError> {
    let (section, had_result_tag) = result_section(response);
    let (unfenced, had_code_fence) = strip_fences(section);

    let (start, end) = brace_span(&unfenced).ok_or(ExtractError {
        reason: "no '{' ... '}' block found",
    })?;
    let json = unfenced[start..end].to_string();

    let before = unfenced[..start].trim();
    let after = unfenced[end..].trim();
    let mut extra = String::new();
    if !before.is_empty() {
        extra.push_str(before);
    }
    if !after.is_empty() {
        if !extra.is_empty() {
            extra.push_str(" … ");
        }
        extra.push_str(after);
    }

    Ok(ExtractedPayload {
        json,
        had_result_tag,
        had_code_fence,
        extra_content: if extra.is_empty() { None } else { Some(extra) },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_result_section() {
        let p = extract_payload("<result>{\"x\": {\"y\": 2}}</result>").unwrap();
        assert_eq!(p.json, "{\"x\": {\"y\": 2}}");
        assert!(p.had_result_tag);
        assert!(!p.has_extra_content());
    }

    #[test]
    fn bare_json_without_tags() {
        let p = extract_payload("{\"a\": 1}").unwrap();
        assert!(!p.had_result_tag);
        assert!(!p.has_extra_content());
        assert_eq!(p.json, "{\"a\": 1}");
    }

    #[test]
    fn fenced_json_is_flagged() {
        let p = extract_payload("<result>\n```json\n{\"a\": 1}\n```\n</result>").unwrap();
        assert_eq!(p.json.trim(), "{\"a\": 1}");
        assert!(p.had_code_fence);
        assert!(p.has_extra_content());
    }

    #[test]
    fn surrounding_prose_is_captured() {
        let p =
            extract_payload("<result>Here is the netlist: {\"a\": 1} Hope this helps!</result>")
                .unwrap();
        assert_eq!(p.json, "{\"a\": 1}");
        let extra = p.extra_content.unwrap();
        assert!(extra.contains("Here is the netlist:"));
        assert!(extra.contains("Hope this helps!"));
    }

    #[test]
    fn analysis_prose_outside_result_is_fine() {
        let p = extract_payload(
            "<analysis>Lots of step-by-step reasoning…</analysis>\n<result>{\"a\": 1}</result>",
        )
        .unwrap();
        assert!(!p.has_extra_content());
    }

    #[test]
    fn braces_inside_strings_do_not_confuse_the_scanner() {
        let p =
            extract_payload(r#"<result>{"note": "a } inside", "b": {"c": 1}}</result>"#).unwrap();
        assert_eq!(p.json, r#"{"note": "a } inside", "b": {"c": 1}}"#);
    }

    /// The byte-at-a-time scanner `brace_span` replaced, as its oracle.
    fn brace_span_bytewise(text: &str) -> Option<(usize, usize)> {
        let start = text.find('{')?;
        let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
        for (i, &b) in text.as_bytes().iter().enumerate().skip(start) {
            if in_string {
                if escaped {
                    escaped = false;
                } else if b == b'\\' {
                    escaped = true;
                } else if b == b'"' {
                    in_string = false;
                }
                continue;
            }
            match b {
                b'"' => in_string = true,
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((start, i + 1));
                    }
                }
                _ => {}
            }
        }
        None
    }

    #[test]
    fn word_scanner_matches_the_bytewise_scanner() {
        // Texts over the bytes that steer the scanner, with escapes and
        // backslash runs landing on every offset within a word.
        const ALPHABET: &[u8] = b"{}\"\\\\ a\n";
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..200 {
            for _ in 0..40 {
                let text: String = (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        ALPHABET[(state >> 33) as usize % ALPHABET.len()] as char
                    })
                    .collect();
                assert_eq!(brace_span(&text), brace_span_bytewise(&text), "{text:?}");
            }
        }
    }

    #[test]
    fn missing_close_tag_still_extracts() {
        let p = extract_payload("<result>\n{\"a\": 1}").unwrap();
        assert_eq!(p.json, "{\"a\": 1}");
        assert!(p.had_result_tag);
    }

    #[test]
    fn no_json_at_all_is_an_error() {
        let err = extract_payload("I cannot help with that.").unwrap_err();
        assert!(err.to_string().contains("could not locate"));
    }

    #[test]
    fn unbalanced_braces_error() {
        assert!(extract_payload("<result>{\"a\": 1").is_err());
    }

    #[test]
    fn case_insensitive_result_tag() {
        let p = extract_payload("<RESULT>{\"a\": 1}</RESULT>").unwrap();
        assert!(p.had_result_tag);
        let p = extract_payload("<Result>{\"a\": 1}</rEsUlT> trailing").unwrap();
        assert_eq!(p.json, "{\"a\": 1}");
        assert!(!p.has_extra_content());
    }

    #[test]
    fn text_whose_lowercase_is_longer_keeps_the_tag_offsets() {
        // 'İ' (2 bytes) lowercases to 3 bytes; offsets found in a
        // lowercased copy would land one byte off in the original.
        let p = extract_payload("İ<result>{\"a\": 1}</result>").unwrap();
        assert_eq!(p.json, "{\"a\": 1}");
        assert!(p.had_result_tag);
        assert!(!p.has_extra_content());
    }

    #[test]
    fn text_whose_lowercase_is_longer_does_not_split_a_char() {
        let p = extract_payload("İ<result>é{\"a\": 1}</result>").unwrap();
        assert_eq!(p.json, "{\"a\": 1}");
        assert!(p.had_result_tag);
        assert_eq!(p.extra_content.as_deref(), Some("é"));
    }
}
