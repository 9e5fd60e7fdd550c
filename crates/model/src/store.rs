//! The one crash-safe, checksummed file store behind everything the
//! tools persist: the fabric's execution outcomes
//! (`atl_core::fabric::OutcomeStore`), hunt corpora ([`HuntStore`]) and
//! the serve daemon's monitor checkpoints
//! ([`render_checkpoint`](crate::wire::render_checkpoint)).
//!
//! Every entry is one file holding one frame:
//!
//! ```text
//! <header>                    format and version, e.g. `atl-outcome v1`
//! key <key>                   what the entry is for
//! len <n> sum <fnv64:016x>    body length in bytes, FNV-1a 64 of the body
//! <body>                      the typed store's own encoding
//! ```
//!
//! A typed store supplies only a file name, a header, a key line and a
//! body codec. Everything else lives here:
//!
//! - [`render_frame`] and [`parse_frame`] are the one codec; the parser
//!   checks the header, the exact body length and the checksum.
//! - [`FrameStore::write`] writes the frame to a temp file of its own in
//!   the store directory and renames it over the entry, so concurrent
//!   writers and killed processes leave the old entry, the new one, or
//!   nothing — never a torn file under the entry's name.
//! - [`FrameStore::read`] also checks the key and the body codec, and
//!   deletes an entry that fails any check: corruption costs one
//!   recomputation, never a wrong answer.
//! - [`FrameStore::list`] lists entries by name prefix and suffix.
//!
//! Writes are not synced to disk. Every store holds work that can be
//! redone, so a crash may lose the latest entries; the checks on read
//! keep it from leaving a wrong one.
//!
//! [`HuntStore`]: crate::HuntStore

use crate::wire::{fnv64, WireError};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Renders one frame: `header`, the `key` line, the length-and-checksum
/// line, then `body` verbatim.
pub fn render_frame(header: &str, key: &str, body: &str) -> String {
    format!(
        "{header}\nkey {key}\nlen {} sum {:016x}\n{body}",
        body.len(),
        fnv64(body.as_bytes())
    )
}

/// Verifies a frame rendered by [`render_frame`] under `header` and
/// returns its key and body.
///
/// # Errors
///
/// [`WireError`] naming the first check that failed: the header, the key
/// line, or the length-and-checksum line, which must be the one
/// [`render_frame`] gives the body.
pub fn parse_frame<'t>(header: &str, text: &'t str) -> Result<(&'t str, &'t str), WireError> {
    let bad = |what: &str| WireError(format!("{header} frame: {what}"));
    let rest = text
        .strip_prefix(header)
        .and_then(|rest| rest.strip_prefix('\n'))
        .ok_or_else(|| bad("wrong header"))?;
    let (key, rest) = rest
        .strip_prefix("key ")
        .and_then(|rest| rest.split_once('\n'))
        .ok_or_else(|| bad("no key line"))?;
    let (sums, body) = rest
        .split_once('\n')
        .ok_or_else(|| bad("no len/sum line"))?;
    if sums != format!("len {} sum {:016x}", body.len(), fnv64(body.as_bytes())) {
        return Err(bad("length or checksum mismatch"));
    }
    Ok((key, body))
}

/// Numbers every temp file this process writes. With the process id it
/// makes each write's temp name unique across threads and across stores
/// open on one directory.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory of frames, one file per entry.
#[derive(Debug)]
pub struct FrameStore {
    dir: PathBuf,
}

impl FrameStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from `create_dir_all`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<FrameStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FrameStore { dir })
    }

    /// The path of entry `name`.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Reads entry `name` and decodes its body. `None` if the entry is
    /// missing; `None`, after deleting the entry, if it is not UTF-8 or
    /// fails the `header`, the `key`, the length, the checksum or
    /// `decode`.
    pub fn read<T>(
        &self,
        name: &str,
        header: &str,
        key: &str,
        decode: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let path = self.path(name);
        let bytes = std::fs::read(&path).ok()?;
        let value = String::from_utf8(bytes).ok().and_then(|text| {
            let (found, body) = parse_frame(header, &text).ok()?;
            (found == key).then(|| decode(body)).flatten()
        });
        if value.is_none() {
            let _ = std::fs::remove_file(&path);
        }
        value
    }

    /// Atomically replaces entry `name` with the frame of `header`, `key`
    /// and `body`: the frame goes to a temp file of its own, which is then
    /// renamed over the entry.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from writing or renaming the temp file, which is
    /// removed again on failure.
    pub fn write(&self, name: &str, header: &str, key: &str, body: &str) -> io::Result<()> {
        let tmp = self.path(&format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let written = std::fs::write(&tmp, render_frame(header, key, body))
            .and_then(|()| std::fs::rename(&tmp, self.path(name)));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }

    /// The names of the entries that start with `prefix` and end with
    /// `suffix`, sorted; temp files are never listed. An unreadable
    /// directory lists nothing.
    pub fn list(&self, prefix: &str, suffix: &str) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut names: Vec<String> = entries
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with(prefix) && n.ends_with(suffix) && !n.starts_with(".tmp-"))
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "atl-test v1";
    const BODY: &str = "first line\nsecond line\n";

    fn temp_store(name: &str) -> FrameStore {
        let dir =
            std::env::temp_dir().join(format!("atl-store-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        FrameStore::open(dir).expect("open")
    }

    fn read(store: &FrameStore, name: &str, header: &str, key: &str) -> Option<String> {
        store.read(name, header, key, |body| Some(body.to_string()))
    }

    #[test]
    fn frames_round_trip_and_list_by_prefix_and_suffix() {
        let store = temp_store("roundtrip");
        store.write("b-2.x", HEADER, "two", BODY).expect("write");
        store.write("b-1.x", HEADER, "one", "").expect("write");
        store.write("a-1.y", HEADER, "other", BODY).expect("write");
        assert_eq!(read(&store, "b-2.x", HEADER, "two").as_deref(), Some(BODY));
        assert_eq!(read(&store, "b-1.x", HEADER, "one").as_deref(), Some(""));
        assert_eq!(store.list("b-", ".x"), ["b-1.x", "b-2.x"]);
        assert_eq!(store.list("", ".y"), ["a-1.y"]);
        assert_eq!(store.list("", "").len(), 3);
        // A missing entry is a plain miss.
        assert_eq!(read(&store, "c", HEADER, "c"), None);
        let text = render_frame(HEADER, "k", BODY);
        assert_eq!(parse_frame(HEADER, &text), Ok(("k", BODY)));
        let _ = std::fs::remove_dir_all(store.path(""));
    }

    /// Every way an entry can arrive damaged or misfiled: each is
    /// discarded, deleted, and — where the frame codec is what catches
    /// it — rejected with an error naming the failed check.
    #[test]
    fn corrupt_entries_are_discarded_and_deleted() {
        let store = temp_store("matrix");
        let good = render_frame(HEADER, "k", BODY);
        let mut flipped = good.clone().into_bytes();
        let at = flipped.len() - 3;
        flipped[at] ^= 0x01;
        let outcome = render_frame("atl-outcome v1", "k", BODY);
        let cases: Vec<(&str, Vec<u8>, &str, Option<&str>)> = vec![
            (
                "truncated body",
                good.as_bytes()[..good.len() - 4].to_vec(),
                HEADER,
                Some("length or checksum"),
            ),
            (
                "one flipped bit",
                flipped,
                HEADER,
                Some("length or checksum"),
            ),
            (
                "garbage bytes",
                b"\x00\xffnot a frame\n".to_vec(),
                HEADER,
                None,
            ),
            (
                "trailing garbage",
                format!("{good}garbage\n").into_bytes(),
                HEADER,
                Some("length or checksum"),
            ),
            (
                "an outcome frame read as a corpus frame",
                outcome.clone().into_bytes(),
                "atl-corpus v2",
                Some("wrong header"),
            ),
            (
                "an outcome frame read as a checkpoint",
                outcome.into_bytes(),
                "atl-monitor v2",
                Some("wrong header"),
            ),
            (
                "a frame of the previous version",
                render_frame("atl-test v0", "k", BODY).into_bytes(),
                HEADER,
                Some("wrong header"),
            ),
            (
                "no key line",
                format!("{HEADER}\nlen 0 sum 0\n").into_bytes(),
                HEADER,
                Some("no key line"),
            ),
            (
                "no len/sum line",
                format!("{HEADER}\nkey k\n").into_bytes(),
                HEADER,
                Some("no len/sum line"),
            ),
            ("an empty file", Vec::new(), HEADER, Some("wrong header")),
        ];
        for (what, bytes, header, error) in cases {
            if let (Some(error), Ok(text)) = (error, std::str::from_utf8(&bytes)) {
                let got = parse_frame(header, text).expect_err(what);
                assert!(got.0.contains(error), "{what}: {got}");
            }
            let path = store.path("entry");
            std::fs::write(&path, &bytes).expect("plant entry");
            assert_eq!(read(&store, "entry", header, "k"), None, "{what}");
            assert!(!path.exists(), "{what}: the entry was not deleted");
        }

        // An entry renamed onto another key.
        store.write("one", HEADER, "one", BODY).expect("write");
        std::fs::rename(store.path("one"), store.path("two")).expect("rename");
        assert_eq!(read(&store, "two", HEADER, "two"), None);
        assert!(!store.path("two").exists());

        // A sound frame whose body the typed codec rejects.
        store.write("entry", HEADER, "k", BODY).expect("write");
        assert_eq!(store.read("entry", HEADER, "k", |_| None::<()>), None);
        assert!(!store.path("entry").exists());
        assert!(store.list("", "").is_empty());
        let _ = std::fs::remove_dir_all(store.path(""));
    }

    /// Writers of one name with bodies of different lengths, readers in
    /// between: a torn write would mix two bodies and fail its checksum.
    #[test]
    fn concurrent_writers_of_one_name_never_tear() {
        let store = temp_store("concurrent");
        let bodies: Vec<String> = (0..8)
            .map(|t| format!("{}\n", t.to_string().repeat(64 * (t + 1))))
            .collect();
        store
            .write("entry", HEADER, "k", &bodies[0])
            .expect("write");
        std::thread::scope(|s| {
            for body in &bodies {
                let (store, bodies) = (&store, &bodies);
                s.spawn(move || {
                    for _ in 0..40 {
                        store.write("entry", HEADER, "k", body).expect("write");
                        let seen = read(store, "entry", HEADER, "k").expect("a whole entry");
                        assert!(bodies.contains(&seen), "torn entry {seen:?}");
                    }
                });
            }
        });
        assert!(read(&store, "entry", HEADER, "k").is_some());
        assert_eq!(store.list("", ""), ["entry"], "temp files left behind");
        let _ = std::fs::remove_dir_all(store.path(""));
    }
}
