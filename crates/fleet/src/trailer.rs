//! The end-of-file checksum trailer worker outputs carry.
//!
//! A worker that dies mid-write, a full disk, or an injected chaos
//! fault can all leave a shard file that *looks* plausible but is
//! short or mangled. Before this module the merge path would happily
//! parse whatever point lines survived and merge the cell short. The
//! trailer closes that hole: [`seal`] appends a final line recording
//! the body's byte length and FNV-1a digest, and [`unseal`] refuses any
//! file whose trailer is missing, malformed, or disagrees with the
//! bytes — the supervisor then fails the cell and re-runs it.
//! The line is a [`sfetch_obs::Row`] read back by [`sfetch_obs::Obj`];
//! the digest is [`sfetch_tab::fnv64`].

use std::fmt;

use sfetch_obs::{Obj, Row};
use sfetch_tab::fnv64;

/// Schema tag of the trailer line.
pub const TRAILER_SCHEMA: &str = "sfetch-shard-trailer-v1";

/// Why [`unseal`] rejected a worker output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrailerError {
    /// No trailer line at all — the classic truncation signature.
    Missing,
    /// A trailer line exists but cannot be parsed.
    Malformed(String),
    /// The trailer's recorded body length disagrees with the bytes.
    LengthMismatch {
        /// Bytes the trailer claims the body has.
        recorded: u64,
        /// Bytes actually present before the trailer line.
        actual: u64,
    },
    /// The body's digest disagrees with the trailer (corruption).
    DigestMismatch,
}

impl fmt::Display for TrailerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrailerError::Missing => f.write_str("no checksum trailer (truncated file?)"),
            TrailerError::Malformed(why) => write!(f, "malformed checksum trailer: {why}"),
            TrailerError::LengthMismatch { recorded, actual } => write!(
                f,
                "trailer records a {recorded}-byte body but {actual} bytes are present \
                 (truncated file)"
            ),
            TrailerError::DigestMismatch => {
                f.write_str("body digest does not match the checksum trailer (corrupt file)")
            }
        }
    }
}

impl std::error::Error for TrailerError {}

/// Appends the checksum trailer line to `body`, returning the complete
/// file text a worker should write. The trailer is line-oriented:
/// `body` must be empty or newline-terminated (every line-JSON shard
/// body is), otherwise its last line and the trailer would fuse.
pub fn seal(body: &str) -> String {
    debug_assert!(
        body.is_empty() || body.ends_with('\n'),
        "seal() requires an empty or newline-terminated body"
    );
    let trailer = Row::new()
        .s("trailer", TRAILER_SCHEMA)
        .u("bytes", body.len() as u64)
        .u("fnv", fnv64(body.as_bytes()))
        .finish();
    format!("{body}{trailer}\n")
}

/// Verifies `text`'s checksum trailer and returns the body (everything
/// before the trailer line).
///
/// # Errors
///
/// Any missing, malformed, or disagreeing trailer — see
/// [`TrailerError`]. Callers treat every variant the same way: the
/// output is untrustworthy and the cell must be re-run.
pub fn unseal(text: &str) -> Result<&str, TrailerError> {
    // The trailer is the last newline-terminated line.
    let stripped = text.strip_suffix('\n').ok_or(TrailerError::Missing)?;
    let line_start = stripped.rfind('\n').map_or(0, |i| i + 1);
    let line = &stripped[line_start..];
    if !line.contains(TRAILER_SCHEMA) {
        return Err(TrailerError::Missing);
    }
    let malformed = |e: sfetch_obs::JsonError| TrailerError::Malformed(e.to_string());
    let trailer = Obj::parse(line).map_err(malformed)?;
    if trailer.s("trailer").map_err(malformed)? != TRAILER_SCHEMA {
        return Err(TrailerError::Malformed("unknown trailer schema".into()));
    }
    let recorded: u64 = trailer.u("bytes").map_err(malformed)?;
    let digest: u64 = trailer.u("fnv").map_err(malformed)?;
    let body = &text[..line_start];
    if body.len() as u64 != recorded {
        return Err(TrailerError::LengthMismatch { recorded, actual: body.len() as u64 });
    }
    if fnv64(body.as_bytes()) != digest {
        return Err(TrailerError::DigestMismatch);
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_roundtrip() {
        for body in ["", "one line\n", "{\"a\": 1}\n{\"b\": 2}\n"] {
            let sealed = seal(body);
            assert_eq!(unseal(&sealed).expect("roundtrip"), body);
        }
    }

    #[test]
    fn truncation_is_detected() {
        let sealed = seal("{\"w\": 0}\n{\"w\": 1}\n{\"w\": 2}\n");
        // Any strict prefix must be rejected: either the trailer line is
        // gone entirely or its recorded length no longer matches.
        for cut in 1..sealed.len() {
            assert!(
                unseal(&sealed[..cut]).is_err(),
                "prefix of {cut} bytes must not verify"
            );
        }
    }

    #[test]
    fn corruption_is_detected() {
        let sealed = seal("{\"w\": 0, \"cycles\": 123}\n");
        let mut bytes = sealed.clone().into_bytes();
        // Flip one digit in the body, keeping the length unchanged.
        let at = sealed.find("123").expect("payload digit");
        bytes[at] = b'9';
        let corrupt = String::from_utf8(bytes).expect("still utf-8");
        assert_eq!(unseal(&corrupt), Err(TrailerError::DigestMismatch));
    }

    #[test]
    fn fnv_is_stable() {
        // Pin the digest function: ledger digests persist across runs,
        // so the algorithm must never drift silently (the full pin lives
        // with the hash in `sfetch-tab`).
        assert_eq!(crate::fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
