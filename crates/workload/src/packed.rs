//! The packed binary trace plane: `flexserve-trace-v1`.
//!
//! JSONL replay ([`JsonlReplay`](crate::stream::JsonlReplay)) parses the
//! whole file and materializes the full [`RoundTrace`] before anything
//! runs; production traces (10⁶–10⁸ rounds) blow both parse time and
//! resident memory. This module is the compact framed alternative:
//!
//! ```text
//! offset    size  field
//! 0         8     magic "FXTRACE1"
//! 8         8     round count            (u64 LE)
//! 16        8     origin universe        (u64 LE, max origin id + 1)
//! 24        8     fingerprint            (u64 LE, FNV-1a over the frame region)
//! 32        …     frames: per round, u32 LE payload length + payload
//! idx_off   8×T   frame index: absolute file offset of every frame (u64 LE)
//! end-16    8     idx_off                (u64 LE)
//! end-8     8     trailer magic "FXTRIDX1"
//! ```
//!
//! Each frame payload holds one round in the canonical sorted-count form
//! of [`RoundRequests`]: LEB128 varints `t`, `k`, then `k` pairs of
//! (origin delta, count). The first delta is the absolute origin id;
//! later deltas are ≥ 1, so the strict origin order of the canonical
//! representation is checkable byte by byte. The trailing frame index
//! gives O(1) seek to any round, which is what makes **windowed** replay
//! possible: [`PackedTrace::window`] decodes only `[start, start+len)`
//! into a `RoundTrace`, so replaying a million-round trace keeps
//! O(window) rounds resident instead of O(trace).
//!
//! One reader ([`PackedTrace`]) decodes every pack from one byte slice,
//! and one walk validates every pack before that — magic, trailer, frame
//! index contiguity, frame lengths, and the header fingerprint over the
//! frame region — so a truncated or bit-flipped pack is a clean `Err`,
//! never a panic or a partial trace. [`PackedTrace::from_bytes`] feeds
//! the walk bytes already in memory. [`PackedTrace::open`] feeds it
//! positioned reads of the file and only then maps the file through a
//! thin hand-rolled `mmap`/`munmap` syscall shim (no new crates, in the
//! `vendor/` spirit), so no page of an open pack is resident until a
//! round on it is read; it reads the file into memory only off Unix or
//! when the mapping fails. The format and its invariants are documented
//! for external producers in `docs/TRACES.md`.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};

use flexserve_graph::NodeId;

use crate::request::RoundRequests;
use crate::round_trace::RoundTrace;
use crate::stream::RequestSource;

/// The format tag, used in docs, manifests and error messages.
pub const PACKED_FORMAT: &str = "flexserve-trace-v1";

/// Leading file magic of a packed trace.
pub const PACKED_MAGIC: [u8; 8] = *b"FXTRACE1";

/// Trailer magic closing the frame index.
pub const PACKED_TRAILER_MAGIC: [u8; 8] = *b"FXTRIDX1";

/// Byte length of the fixed header (magic + rounds + universe + fingerprint).
pub const PACKED_HEADER_LEN: u64 = 32;

/// Byte length of the trailer (index offset + trailer magic).
pub const PACKED_TRAILER_LEN: u64 = 16;

/// Smallest possible packed trace: header + empty frame region + trailer.
pub const PACKED_MIN_LEN: u64 = PACKED_HEADER_LEN + PACKED_TRAILER_LEN;

// ---------------------------------------------------------------------------
// FNV-1a (same hand-rolled 64-bit variant as `Graph::fingerprint` and the
// routing ring; duplicated here because `workload` sits below both).
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes` — the fingerprint function of the packed
/// format, exported so tests can re-fingerprint mutated frame regions.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`, so a writer can hash the
/// frame region as it streams past.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// ---------------------------------------------------------------------------
// mmap shim (unix): the thin syscall wrapper the exemplar dual scanner
// hand-rolls — std already links libc, so no new crate is needed.
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod mem_map {
    use std::ffi::c_void;
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// A read-only private mapping of a whole file, unmapped on drop.
    pub struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: `Mmap` owns its mapping (unmapped once, on drop) and maps
    // it `PROT_READ`, so no thread ever writes through `ptr`; moving the
    // owner to another thread moves nothing but the address.
    unsafe impl Send for Mmap {}
    // SAFETY: the only access through a shared `&Mmap` is `as_slice`, a
    // read of immutable memory, which any number of threads may do at
    // once.
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps the whole of `file` read-only. Fails (cleanly) when the
        /// platform refuses the mapping — callers fall back to reading
        /// the file into memory.
        pub fn map(file: &File) -> Result<Self, String> {
            let len = file.metadata().map_err(|e| e.to_string())?.len();
            let len = usize::try_from(len).map_err(|_| "file too large to map".to_string())?;
            if len == 0 {
                return Err("cannot map an empty file".to_string());
            }
            // SAFETY: a null hint lets the kernel choose the address, and
            // `len` is the file's non-zero length at open time; `fd` is
            // borrowed from a live `File` only for the call (the mapping
            // outlives the descriptor by POSIX). The result is checked
            // against MAP_FAILED before it is stored.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(format!("mmap failed: {}", std::io::Error::last_os_error()));
            }
            Ok(Mmap { ptr, len })
        }

        /// The mapped bytes.
        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a successful mapping of exactly `len`
            // readable bytes that lives until `self` drops, and the slice
            // borrows `self`. The bytes hold still only while the file
            // does: changing or truncating it under an open reader is
            // outside the contract (see `PackedTrace::open`).
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are exactly the mapping `map` created,
            // unmapped only here, and no slice from `as_slice` can
            // outlive the `&self` borrow it came from.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Varints (LEB128)
// ---------------------------------------------------------------------------

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf
            .get(*pos)
            .ok_or_else(|| "truncated frame payload (varint runs past the frame)".to_string())?;
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return Err("corrupt frame payload (varint overflows u64)".to_string());
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err("corrupt frame payload (varint overflows u64)".to_string());
        }
    }
}

// ---------------------------------------------------------------------------
// Frame encode/decode
// ---------------------------------------------------------------------------

/// Appends round `t` to `out`: varint `t`, varint `k`, then `k` ×
/// (origin delta, count). Deterministic, so packing is a fixed point:
/// pack(unpack(pack(x))) is byte-identical to pack(x).
fn encode_frame(t: u64, round: &RoundRequests, out: &mut Vec<u8>) {
    let counts = round.counts_slice();
    write_varint(out, t);
    write_varint(out, counts.len() as u64);
    let mut prev: u64 = 0;
    for (i, &(origin, count)) in counts.iter().enumerate() {
        let id = origin.index() as u64;
        let delta = if i == 0 { id } else { id - prev };
        write_varint(out, delta);
        write_varint(out, count as u64);
        prev = id;
    }
}

/// Decodes one frame payload, validating the embedded `t`, the strict
/// origin order, that the counts sum within `usize`, and that every byte
/// is consumed.
fn decode_frame(payload: &[u8], expect_t: u64, universe: u64) -> Result<RoundRequests, String> {
    let mut pos = 0usize;
    let t = read_varint(payload, &mut pos)?;
    if t != expect_t {
        return Err(format!(
            "out-of-order round (expected t={expect_t}, got t={t})"
        ));
    }
    let k = read_varint(payload, &mut pos)?;
    // Every (delta, count) pair costs at least 2 bytes: a declared k that
    // cannot fit in the remaining payload is corruption, caught before the
    // allocation below can balloon.
    let remaining = payload.len() - pos;
    if k > (remaining as u64) / 2 + 1 {
        return Err(format!(
            "corrupt frame at t={t}: {k} origins declared in a {remaining}-byte payload"
        ));
    }
    let mut counts = Vec::with_capacity(k as usize);
    let mut origin: u64 = 0;
    // The round's total must fit too: `RoundRequests` sums the counts.
    let mut total: usize = 0;
    for i in 0..k {
        let delta = read_varint(payload, &mut pos)?;
        if i == 0 {
            origin = delta;
        } else {
            if delta == 0 {
                return Err(format!("corrupt frame at t={t}: unsorted origins"));
            }
            origin = origin
                .checked_add(delta)
                .ok_or_else(|| format!("corrupt frame at t={t}: origin overflows u64"))?;
        }
        if origin >= universe {
            return Err(format!(
                "corrupt frame at t={t}: origin {origin} out of range (trace universe has {universe} origins)"
            ));
        }
        let id = u32::try_from(origin).map_err(|_| {
            format!("corrupt frame at t={t}: origin {origin} exceeds the node id space")
        })?;
        let count = read_varint(payload, &mut pos)?;
        if count == 0 {
            return Err(format!("corrupt frame at t={t}: zero count"));
        }
        let count = usize::try_from(count)
            .map_err(|_| format!("corrupt frame at t={t}: count overflows usize"))?;
        total = total
            .checked_add(count)
            .ok_or_else(|| format!("corrupt frame at t={t}: request count overflows"))?;
        counts.push((NodeId::new(id as usize), count));
    }
    if pos != payload.len() {
        return Err(format!(
            "corrupt frame at t={t}: {} trailing bytes",
            payload.len() - pos
        ));
    }
    Ok(RoundRequests::from_counts(counts))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Summary returned by [`PackWriter::finish`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackSummary {
    /// Rounds written.
    pub rounds: u64,
    /// Origin universe (max origin id + 1, 0 for an all-empty trace).
    pub universe: u64,
    /// Total bytes of the finished pack.
    pub bytes: u64,
}

/// Bytes the writer gathers before each write, and each read of the
/// validation walk over a file.
const CHUNK: usize = 64 * 1024;

/// Streams rounds into the packed format: write a placeholder header,
/// append one frame per [`write_round`](Self::write_round), then
/// [`finish`](Self::finish) appends the frame index + trailer and patches
/// the header in place. Frames are encoded straight into one buffer,
/// fingerprinted there and written out 64 KiB at a time, so the
/// writer holds at most one chunk of frames (plus 8 bytes of index per
/// round) and packing a million-round source stays O(chunk) resident.
pub struct PackWriter<W: Write + Seek> {
    out: W,
    index: Vec<u64>,
    /// Absolute offset of the next frame.
    offset: u64,
    /// FNV-1a of the frames encoded so far.
    hash: u64,
    universe: u64,
    /// Encoded frames not yet written out.
    pending: Vec<u8>,
}

impl<W: Write + Seek> PackWriter<W> {
    /// Starts a pack on `out` (positioned at its start).
    pub fn new(mut out: W) -> Result<Self, String> {
        let mut header = [0u8; PACKED_HEADER_LEN as usize];
        header[..8].copy_from_slice(&PACKED_MAGIC);
        out.write_all(&header)
            .map_err(|e| format!("pack write error: {e}"))?;
        Ok(PackWriter {
            out,
            index: Vec::new(),
            offset: PACKED_HEADER_LEN,
            hash: FNV_OFFSET,
            universe: 0,
            pending: Vec::with_capacity(CHUNK),
        })
    }

    /// Rounds written so far.
    pub fn rounds(&self) -> u64 {
        self.index.len() as u64
    }

    /// Appends the next round (frames carry consecutive `t` starting at 0).
    pub fn write_round(&mut self, round: &RoundRequests) -> Result<(), String> {
        let t = self.index.len() as u64;
        let start = self.pending.len();
        // The length prefix is patched in once the payload is encoded.
        self.pending.extend_from_slice(&[0; 4]);
        encode_frame(t, round, &mut self.pending);
        let Ok(len) = u32::try_from(self.pending.len() - start - 4) else {
            self.pending.truncate(start);
            return Err(format!("round t={t} encodes past the 4 GiB frame limit"));
        };
        self.pending[start..start + 4].copy_from_slice(&len.to_le_bytes());
        // Hashed while the frame is hot, where the hash's serial chain
        // overlaps the encoding around it.
        self.hash = fnv1a_extend(self.hash, &self.pending[start..]);
        self.index.push(self.offset);
        self.offset += 4 + u64::from(len);
        if let Some(&(origin, _)) = round.counts_slice().last() {
            self.universe = self.universe.max(origin.index() as u64 + 1);
        }
        if self.pending.len() >= CHUNK {
            self.flush_frames()?;
        }
        Ok(())
    }

    /// Writes out the pending frames.
    fn flush_frames(&mut self) -> Result<(), String> {
        self.out
            .write_all(&self.pending)
            .map_err(|e| format!("pack write error: {e}"))?;
        self.pending.clear();
        Ok(())
    }

    /// Writes the frame index + trailer, patches the header (round count,
    /// origin universe, fingerprint), and returns the summary plus the
    /// underlying writer (flushed, positioned at end of file).
    pub fn finish(mut self) -> Result<(PackSummary, W), String> {
        self.flush_frames()?;
        let err = |e| format!("pack write error: {e}");
        let index_offset = self.offset;
        // The index goes out through the same buffer, a chunk at a time,
        // and the trailer with its last chunk.
        for &off in &self.index {
            self.pending.extend_from_slice(&off.to_le_bytes());
            if self.pending.len() >= CHUNK {
                self.out.write_all(&self.pending).map_err(err)?;
                self.pending.clear();
            }
        }
        self.pending.extend_from_slice(&index_offset.to_le_bytes());
        self.pending.extend_from_slice(&PACKED_TRAILER_MAGIC);
        self.out.write_all(&self.pending).map_err(err)?;
        let bytes = index_offset + self.index.len() as u64 * 8 + PACKED_TRAILER_LEN;
        let summary = PackSummary {
            rounds: self.index.len() as u64,
            universe: self.universe,
            bytes,
        };
        let mut fields = [0u8; 24];
        for (field, word) in
            fields
                .chunks_exact_mut(8)
                .zip([summary.rounds, summary.universe, self.hash])
        {
            field.copy_from_slice(&word.to_le_bytes());
        }
        self.out.seek(SeekFrom::Start(8)).map_err(err)?;
        self.out.write_all(&fields).map_err(err)?;
        self.out.seek(SeekFrom::Start(bytes)).map_err(err)?;
        self.out.flush().map_err(err)?;
        Ok((summary, self.out))
    }
}

/// Packs a materialized trace into an in-memory `flexserve-trace-v1`
/// image (the [`RoundTrace::to_packed`] delegate).
pub fn pack_trace(trace: &RoundTrace) -> Vec<u8> {
    let mut writer =
        PackWriter::new(std::io::Cursor::new(Vec::new())).expect("in-memory pack cannot fail");
    for round in trace.iter() {
        writer
            .write_round(round)
            .expect("in-memory pack cannot fail");
    }
    let (_, cursor) = writer.finish().expect("in-memory pack cannot fail");
    cursor.into_inner()
}

/// Packs a JSONL replay file into `output`, streaming: one round resident
/// at a time on both sides. Refuses an already-packed input, and removes
/// the partial output file when packing fails midway.
pub fn pack_jsonl_file(input: &str, output: &str) -> Result<PackSummary, String> {
    if is_packed_file(input)? {
        return Err(format!(
            "{input} is already a packed trace ({PACKED_FORMAT}); pass the JSONL original"
        ));
    }
    // JSONL origin ids are only bounded by the node id space here; replay
    // against a concrete substrate re-validates the universe at open time.
    let mut source = crate::stream::file_source(input, u32::MAX as usize)?;
    let result = (|| {
        let file = File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
        let mut writer = PackWriter::new(std::io::BufWriter::new(file))?;
        while let Some(round) = source.next_round()? {
            writer.write_round(&round)?;
        }
        let (summary, _) = writer.finish()?;
        Ok(summary)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(output);
    }
    result
}

/// Whether `buf` starts with the packed-trace magic.
pub fn is_packed_bytes(buf: &[u8]) -> bool {
    buf.len() >= 8 && buf[..8] == PACKED_MAGIC
}

/// Whether the file at `path` starts with the packed-trace magic (the
/// `wl=replay:` / `source=` auto-detection sniff).
pub fn is_packed_file(path: &str) -> Result<bool, String> {
    let mut file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut head = [0u8; 8];
    let mut got = 0;
    while got < head.len() {
        match file
            .read(&mut head[got..])
            .map_err(|e| format!("{path}: read error: {e}"))?
        {
            0 => return Ok(false),
            n => got += n,
        }
    }
    Ok(head == PACKED_MAGIC)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// The bytes a [`PackedTrace`] decodes from.
enum Backing {
    #[cfg(unix)]
    Mapped(mem_map::Mmap),
    Owned(Vec<u8>),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Backing::Mapped(map) => map.as_slice(),
            Backing::Owned(bytes) => bytes,
        }
    }
}

/// A validated `flexserve-trace-v1` image: random access to any round and
/// O(window)-resident [`window`](Self::window) views, decoded from one
/// byte slice (an mmap of the file, or bytes in memory).
///
/// Every constructor validates the entire image in one walk — magic,
/// trailer, frame-index contiguity, frame lengths, and the FNV-1a
/// fingerprint over the frame region — and returns a clean `Err` on
/// truncated or corrupted input. [`open`](Self::open) walks the file by
/// positioned reads before it maps anything, so an open pack holds none
/// of its pages resident: `round(t)` faults in only the frame and index
/// pages it reads.
pub struct PackedTrace {
    rounds: u64,
    universe: u64,
    fingerprint: u64,
    /// Byte offset of the frame index; validated to lie inside the image.
    index_offset: usize,
    label: String,
    backing: Backing,
}

/// The little-endian `u64` at `buf[at..at + 8]` (in bounds by the caller's
/// checks).
fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("an 8-byte slice"))
}

/// Where the validation walk reads a pack from.
#[derive(Clone, Copy)]
enum Feed<'a> {
    /// An image in memory, fed as one chunk.
    Bytes(&'a [u8]),
    /// A file, fed in [`CHUNK`]-byte positioned reads, which leave none
    /// of its pages in the process's resident set.
    #[cfg(unix)]
    File(&'a File),
}

impl Feed<'_> {
    /// Fills `out` from offset `at`, which the walk keeps inside the
    /// length it checked: a short read means the file shrank under it.
    fn read_at(self, label: &str, at: u64, out: &mut [u8]) -> Result<(), String> {
        match self {
            Feed::Bytes(bytes) => {
                out.copy_from_slice(&bytes[at as usize..at as usize + out.len()]);
                Ok(())
            }
            #[cfg(unix)]
            Feed::File(file) => std::os::unix::fs::FileExt::read_exact_at(file, out, at)
                .map_err(|e| format!("{label}: read error: {e}")),
        }
    }
}

/// A forward reader over the region `[pos, end)` of a pack, one chunk at
/// a time. The frame cursor folds every chunk into the fingerprint as it
/// arrives, so the frame region is read exactly once.
struct Cursor<'a> {
    feed: Feed<'a>,
    label: &'a str,
    /// Offset of the next unread byte.
    pos: u64,
    /// End offset of the current chunk (`chunk_end == pos`: none unread).
    chunk_end: u64,
    end: u64,
    /// The current chunk of a file feed.
    buf: Vec<u8>,
    /// FNV-1a of every chunk so far, for the cursor that fingerprints.
    hash: Option<u64>,
}

impl<'a> Cursor<'a> {
    fn new(feed: Feed<'a>, label: &'a str, start: u64, end: u64, fingerprinted: bool) -> Self {
        Cursor {
            feed,
            label,
            pos: start,
            chunk_end: start,
            end,
            buf: Vec::new(),
            hash: fingerprinted.then_some(FNV_OFFSET),
        }
    }

    /// The unread rest of the current chunk.
    #[inline]
    fn unread(&self) -> &[u8] {
        let chunk: &[u8] = match self.feed {
            Feed::Bytes(bytes) => &bytes[..self.chunk_end as usize],
            #[cfg(unix)]
            Feed::File(_) => &self.buf,
        };
        &chunk[chunk.len() - (self.chunk_end - self.pos) as usize..]
    }

    /// Fetches the next chunk once the current one is used up; false at
    /// the end of the region.
    fn fetch(&mut self) -> Result<bool, String> {
        if self.pos < self.chunk_end {
            return Ok(true);
        }
        if self.pos == self.end {
            return Ok(false);
        }
        let fetched = match self.feed {
            Feed::Bytes(bytes) => {
                self.chunk_end = self.end;
                &bytes[self.pos as usize..self.end as usize]
            }
            #[cfg(unix)]
            feed @ Feed::File(_) => {
                self.chunk_end = self.end.min(self.pos + CHUNK as u64);
                self.buf.resize((self.chunk_end - self.pos) as usize, 0);
                feed.read_at(self.label, self.pos, &mut self.buf)?;
                &self.buf
            }
        };
        if let Some(hash) = &mut self.hash {
            *hash = fnv1a_extend(*hash, fetched);
        }
        Ok(true)
    }

    /// The next `N` bytes.
    #[inline]
    fn take<const N: usize>(&mut self) -> Result<[u8; N], String> {
        if let Some(&bytes) = self.unread().first_chunk::<N>() {
            self.pos += N as u64;
            return Ok(bytes);
        }
        // Across a chunk edge (or before the first chunk).
        let mut out = [0u8; N];
        let mut got = 0;
        while got < N {
            if !self.fetch()? {
                // The walk checks every read against the region first.
                return Err(format!("{}: truncated packed trace", self.label));
            }
            let unread = self.unread();
            let step = unread.len().min(N - got);
            out[got..got + step].copy_from_slice(&unread[..step]);
            got += step;
            self.pos += step as u64;
        }
        Ok(out)
    }

    /// Moves past `n` bytes, fetching (and so fingerprinting) every chunk
    /// they span.
    #[inline]
    fn skip(&mut self, mut n: u64) -> Result<(), String> {
        while n > self.chunk_end - self.pos {
            n -= self.chunk_end - self.pos;
            self.pos = self.chunk_end;
            if !self.fetch()? {
                return Err(format!("{}: truncated packed trace", self.label));
            }
        }
        self.pos += n;
        Ok(())
    }
}

/// The one validation walk over a packed image of `file_len` bytes, fed
/// sequential chunks by two cursors: one over the frame region, one over
/// the frame index. Returns `(rounds, universe, fingerprint,
/// index_offset)` once the fixed fields, every frame-index entry, every
/// frame length and the fingerprint check out; afterwards every frame
/// `t < rounds` starts at index entry `t` and ends where the next one
/// starts (or at the index), inside the image.
fn validate(label: &str, feed: Feed<'_>, file_len: u64) -> Result<(u64, u64, u64, usize), String> {
    if file_len < PACKED_MIN_LEN {
        return Err(format!(
            "{label}: truncated packed trace ({file_len} bytes; the header alone needs {PACKED_MIN_LEN})"
        ));
    }
    let mut header = [0u8; PACKED_HEADER_LEN as usize];
    feed.read_at(label, 0, &mut header)?;
    if header[..8] != PACKED_MAGIC {
        return Err(format!("{label}: bad magic (not a {PACKED_FORMAT} file)"));
    }
    let (rounds, universe, fingerprint) =
        (u64_at(&header, 8), u64_at(&header, 16), u64_at(&header, 24));
    let mut trailer = [0u8; PACKED_TRAILER_LEN as usize];
    feed.read_at(label, file_len - PACKED_TRAILER_LEN, &mut trailer)?;
    if trailer[8..] != PACKED_TRAILER_MAGIC {
        return Err(format!("{label}: corrupt trailer (bad index magic)"));
    }
    let index_offset = u64_at(&trailer, 0);
    let expected_len = rounds
        .checked_mul(8)
        .and_then(|idx| index_offset.checked_add(idx))
        .and_then(|v| v.checked_add(PACKED_TRAILER_LEN));
    if index_offset < PACKED_HEADER_LEN || expected_len != Some(file_len) {
        return Err(format!(
            "{label}: corrupt frame index (rounds={rounds}, index offset={index_offset}, file length={file_len})"
        ));
    }
    // Walk the frame index: every frame must start where the previous
    // one ended and stay inside the frame region.
    let mut frames = Cursor::new(feed, label, PACKED_HEADER_LEN, index_offset, true);
    let mut index = Cursor::new(
        feed,
        label,
        index_offset,
        file_len - PACKED_TRAILER_LEN,
        false,
    );
    for t in 0..rounds {
        let pos = frames.pos;
        let off = u64::from_le_bytes(index.take()?);
        if off != pos {
            return Err(format!(
                "{label}: frame index mismatch at round {t} (index says offset {off}, frames end at {pos})"
            ));
        }
        let overrun = || format!("{label}: frame length at round {t} overruns the frame region");
        if pos + 4 > index_offset {
            return Err(overrun());
        }
        let len = u64::from(u32::from_le_bytes(frames.take()?));
        if pos + 4 + len > index_offset {
            return Err(overrun());
        }
        frames.skip(len)?;
    }
    if frames.pos != index_offset {
        return Err(format!(
            "{label}: frame region does not end at the frame index ({} unindexed bytes)",
            index_offset - frames.pos
        ));
    }
    let actual = frames.hash.expect("the frame cursor fingerprints");
    if actual != fingerprint {
        return Err(format!(
            "{label}: fingerprint mismatch (header says {fingerprint:#018x}, frames hash to {actual:#018x})"
        ));
    }
    // The index ends inside the image, so it fits `usize`.
    Ok((rounds, universe, fingerprint, index_offset as usize))
}

impl PackedTrace {
    /// Opens `path`: validates the file by positioned reads, then maps
    /// that same open file read-only for serving (so a pack renamed into
    /// place between the two steps cannot swap the bytes validated).
    /// Nothing of the file is resident after `open`; `round(t)` faults in
    /// the pages it reads. Off Unix, or when the mapping fails, the file
    /// is read into memory through [`from_bytes`](Self::from_bytes)
    /// instead. Validation errors (corrupt files) are returned, not
    /// retried.
    ///
    /// Validation covers the file as it is at open time. Truncating or
    /// rewriting the file while the returned reader is alive is outside
    /// the contract: the mapping is `MAP_PRIVATE`, and a read of a page
    /// past the new end of file raises `SIGBUS` instead of returning an
    /// `Err`. Write packs to a new path and rename them into place rather
    /// than changing a file that may be open.
    pub fn open(path: &str) -> Result<Self, String> {
        let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        #[cfg(unix)]
        {
            let len = file
                .metadata()
                .map_err(|e| format!("cannot read {path}: {e}"))?
                .len();
            let shape = validate(path, Feed::File(&file), len)?;
            match mem_map::Mmap::map(&file) {
                // A length that moved since the walk means the file
                // changed: read and validate what it holds now.
                Ok(map) if map.as_slice().len() as u64 == len => {
                    return Ok(Self::new(path, shape, Backing::Mapped(map)));
                }
                _ => {}
            }
        }
        let mut bytes = Vec::new();
        (&file)
            .read_to_end(&mut bytes)
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::from_bytes(path, bytes)
    }

    /// Validates an in-memory pack image; `label` names it in errors.
    pub fn from_bytes(label: &str, bytes: Vec<u8>) -> Result<Self, String> {
        let shape = validate(label, Feed::Bytes(&bytes), bytes.len() as u64)?;
        Ok(Self::new(label, shape, Backing::Owned(bytes)))
    }

    fn new(label: &str, shape: (u64, u64, u64, usize), backing: Backing) -> Self {
        let (rounds, universe, fingerprint, index_offset) = shape;
        PackedTrace {
            rounds,
            universe,
            fingerprint,
            index_offset,
            label: label.to_string(),
            backing,
        }
    }

    /// Number of rounds in the trace.
    pub fn len(&self) -> u64 {
        self.rounds
    }

    /// Whether the trace has no rounds.
    pub fn is_empty(&self) -> bool {
        self.rounds == 0
    }

    /// The origin universe from the header: max origin id + 1 (0 when every
    /// round is empty). Replay against a substrate requires
    /// `origin_universe() <= node count`.
    pub fn origin_universe(&self) -> u64 {
        self.universe
    }

    /// The header fingerprint (FNV-1a over the frame region), verified at
    /// open time.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The file (or label) this trace was opened from.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Decodes round `t` (an O(1) frame-index lookup plus one frame
    /// decode).
    pub fn round(&self, t: u64) -> Result<RoundRequests, String> {
        if t >= self.rounds {
            return Err(format!(
                "{}: round {t} out of range ({} rounds)",
                self.label, self.rounds
            ));
        }
        // `validate` pinned frame `t` between index entries `t` and `t + 1`
        // (the index itself for the last frame), past its length prefix.
        let buf = self.backing.bytes();
        let at = self.index_offset + 8 * t as usize;
        let start = u64_at(buf, at) as usize + 4;
        let end = if t + 1 < self.rounds {
            u64_at(buf, at + 8) as usize
        } else {
            self.index_offset
        };
        decode_frame(&buf[start..end], t, self.universe).map_err(|e| format!("{}: {e}", self.label))
    }

    /// Decodes the window `[start, start+len)` (clamped to the trace) into
    /// a [`RoundTrace`] view — the O(window)-resident unit of windowed
    /// replay.
    pub fn window(&self, start: u64, len: u64) -> Result<RoundTrace, String> {
        let end = start.saturating_add(len).min(self.rounds);
        let start = start.min(end);
        let mut out = Vec::with_capacity((end - start) as usize);
        for t in start..end {
            out.push(self.round(t)?);
        }
        Ok(RoundTrace::new(out))
    }

    /// Fully materializes the trace (use [`window`](Self::window) when the
    /// trace may be large).
    pub fn materialize(&self) -> Result<RoundTrace, String> {
        self.window(0, self.rounds)
    }
}

// ---------------------------------------------------------------------------
// RequestSource adapter
// ---------------------------------------------------------------------------

/// A packed trace as a streaming [`RequestSource`] — the packed
/// counterpart of [`JsonlReplay`](crate::stream::JsonlReplay), with an
/// O(1) [`skip`](RequestSource::skip) via the frame index (resume does
/// not decode the skipped prefix).
pub struct PackedReplay {
    trace: PackedTrace,
    pos: u64,
}

impl PackedReplay {
    /// Opens `path` (see [`PackedTrace::open`]), validating the trace's
    /// origin universe against a substrate of `max_node` nodes.
    pub fn open(path: &str, max_node: usize) -> Result<Self, String> {
        let trace = PackedTrace::open(path)?;
        Self::from_trace(trace, max_node)
    }

    /// Wraps an already-open [`PackedTrace`], validating its universe.
    pub fn from_trace(trace: PackedTrace, max_node: usize) -> Result<Self, String> {
        if trace.origin_universe() > max_node as u64 {
            return Err(format!(
                "{}: origin universe {} out of range (substrate has {max_node} nodes)",
                trace.label(),
                trace.origin_universe()
            ));
        }
        Ok(PackedReplay { trace, pos: 0 })
    }

    /// The next round index this replay will emit.
    pub fn position(&self) -> u64 {
        self.pos
    }
}

impl RequestSource for PackedReplay {
    fn next_round(&mut self) -> Result<Option<RoundRequests>, String> {
        if self.pos >= self.trace.len() {
            return Ok(None);
        }
        let round = self.trace.round(self.pos)?;
        self.pos += 1;
        Ok(Some(round))
    }

    fn skip(&mut self, n: u64) -> Result<u64, String> {
        let n = n.min(self.trace.len() - self.pos);
        self.pos += n;
        Ok(n)
    }

    fn describe(&self) -> String {
        format!(
            "packed replay {} ({} rounds)",
            self.trace.label(),
            self.trace.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::record;
    use crate::uniform::UniformScenario;
    use flexserve_graph::gen::unit_line;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn temp(name: &str) -> String {
        std::env::temp_dir()
            .join(name)
            .to_str()
            .unwrap()
            .to_string()
    }

    fn sample_trace(rounds: u64) -> RoundTrace {
        let g = unit_line(16).unwrap();
        record(&mut UniformScenario::new(&g, 5, 42), rounds)
    }

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, 16383, 16384, u64::MAX] {
            buf.clear();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        // truncated + overflowing varints fail cleanly
        assert!(read_varint(&[0x80], &mut 0)
            .unwrap_err()
            .contains("truncated"));
        assert!(read_varint(&[0xff; 10], &mut 0)
            .unwrap_err()
            .contains("overflows"));
    }

    #[test]
    fn pack_unpack_round_trips_and_is_a_fixed_point() {
        let trace = sample_trace(20);
        let bytes = pack_trace(&trace);
        assert!(is_packed_bytes(&bytes));
        let path = temp("flexserve-packed-unit.ftr");
        std::fs::write(&path, &bytes).unwrap();
        let packed = PackedTrace::open(&path).unwrap();
        assert_eq!(packed.len(), 20);
        let back = packed.materialize().unwrap();
        assert_eq!(back, trace);
        assert_eq!(pack_trace(&back), bytes, "pack must be a fixed point");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_and_owned_images_agree() {
        let trace = sample_trace(15);
        let bytes = pack_trace(&trace);
        let path = temp("flexserve-packed-modes.ftr");
        std::fs::write(&path, &bytes).unwrap();
        let mapped = PackedTrace::open(&path).unwrap();
        #[cfg(unix)]
        assert!(matches!(mapped.backing, Backing::Mapped(_)));
        let owned = PackedTrace::from_bytes("owned", bytes).unwrap();
        assert_eq!(mapped.materialize().unwrap(), trace);
        assert_eq!(owned.materialize().unwrap(), trace);
        assert_eq!(mapped.fingerprint(), owned.fingerprint());
        std::fs::remove_file(&path).unwrap();
    }

    /// Opening a file and handing its bytes to `from_bytes` walk the
    /// same checks in different chunks; on a pack spanning several read
    /// chunks in both the frame region and the index, byte flips on
    /// either side of every chunk edge (re-fingerprinted or not) must
    /// give both the same error, or the same trace.
    #[test]
    fn file_and_memory_walks_agree_across_chunk_edges() {
        let trace = sample_trace(30_000);
        let valid = pack_trace(&trace);
        let index = u64_at(&valid, valid.len() - 16) as usize;
        let trailer = valid.len() - PACKED_TRAILER_LEN as usize;
        assert!(index > 2 * CHUNK && trailer - index > 2 * CHUNK);
        let refingerprint = |bytes: &mut Vec<u8>| {
            let fingerprint = fnv1a(&bytes[PACKED_HEADER_LEN as usize..index]);
            bytes[24..32].copy_from_slice(&fingerprint.to_le_bytes());
        };
        let mut cases = vec![valid.clone()];
        for start in [PACKED_HEADER_LEN as usize, index] {
            for edge in [start + CHUNK, start + 2 * CHUNK] {
                for at in [edge - 1, edge, edge + 1] {
                    let mut bad = valid.clone();
                    bad[at] ^= 0x01;
                    cases.push(bad.clone());
                    refingerprint(&mut bad);
                    cases.push(bad);
                }
            }
        }
        let path = temp("flexserve-packed-chunk-edges.ftr");
        for (i, bytes) in cases.into_iter().enumerate() {
            std::fs::write(&path, &bytes).unwrap();
            match (
                PackedTrace::open(&path),
                PackedTrace::from_bytes(&path, bytes),
            ) {
                (Ok(file), Ok(memory)) => {
                    assert_eq!(file.fingerprint(), memory.fingerprint(), "case {i}");
                    assert_eq!(file.len(), memory.len(), "case {i}");
                    for t in 0..file.len() {
                        assert_eq!(file.round(t), memory.round(t), "case {i}, round {t}");
                    }
                    if i == 0 {
                        assert_eq!(file.materialize().unwrap(), trace);
                    }
                }
                (Err(file), Err(memory)) => {
                    assert_ne!(i, 0, "the valid pack must open: {file}");
                    assert_eq!(file, memory, "case {i}");
                }
                (file, memory) => panic!(
                    "case {i}: file {:?} vs memory {:?}",
                    file.err(),
                    memory.err()
                ),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn request_counts_that_overflow_the_round_total_are_corrupt() {
        // One round, origins 0 and 1 at 2^63 requests each: every count
        // fits `usize`, their sum does not.
        let mut payload = Vec::new();
        for v in [0, 2, 0, 1 << 63, 1, 1 << 63] {
            write_varint(&mut payload, v);
        }
        let mut frames = (payload.len() as u32).to_le_bytes().to_vec();
        frames.extend_from_slice(&payload);
        let mut bytes = PACKED_MAGIC.to_vec();
        for word in [1, 2, fnv1a(&frames)] {
            bytes.extend_from_slice(&u64::to_le_bytes(word));
        }
        bytes.extend_from_slice(&frames);
        let index_offset = bytes.len() as u64;
        bytes.extend_from_slice(&PACKED_HEADER_LEN.to_le_bytes());
        bytes.extend_from_slice(&index_offset.to_le_bytes());
        bytes.extend_from_slice(&PACKED_TRAILER_MAGIC);

        let packed = PackedTrace::from_bytes("overflow", bytes).unwrap();
        assert_eq!(
            packed.round(0).unwrap_err(),
            "overflow: corrupt frame at t=0: request count overflows"
        );
    }

    #[test]
    fn windows_are_clamped_views() {
        let trace = sample_trace(10);
        let path = temp("flexserve-packed-window.ftr");
        std::fs::write(&path, pack_trace(&trace)).unwrap();
        let packed = PackedTrace::open(&path).unwrap();
        assert_eq!(packed.window(3, 4).unwrap(), trace.slice(3, 7));
        assert_eq!(packed.window(8, 100).unwrap(), trace.slice(8, 10));
        assert!(packed.window(50, 5).unwrap().is_empty());
        // random access after windows
        assert_eq!(&packed.round(2).unwrap(), trace.round(2));
        assert_eq!(&packed.round(9).unwrap(), trace.round(9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_trace_packs() {
        let path = temp("flexserve-packed-empty.ftr");
        std::fs::write(&path, pack_trace(&RoundTrace::default())).unwrap();
        let packed = PackedTrace::open(&path).unwrap();
        assert!(packed.is_empty());
        assert_eq!(packed.origin_universe(), 0);
        assert!(packed.materialize().unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn packed_replay_streams_and_skips() {
        let trace = sample_trace(12);
        let path = temp("flexserve-packed-replay.ftr");
        std::fs::write(&path, pack_trace(&trace)).unwrap();
        let mut replay = PackedReplay::open(&path, 16).unwrap();
        assert!(replay.describe().contains("packed replay"));
        assert_eq!(replay.skip(5).unwrap(), 5);
        assert_eq!(replay.position(), 5);
        for t in 5..12 {
            assert_eq!(&replay.next_round().unwrap().unwrap(), trace.round(t));
        }
        assert!(replay.next_round().unwrap().is_none());
        // skipping past the end reports how far it got
        let mut replay = PackedReplay::open(&path, 16).unwrap();
        assert_eq!(replay.skip(13).unwrap(), 12);
        assert!(replay.next_round().unwrap().is_none());
        // universe validation
        assert!(PackedReplay::open(&path, 2)
            .err()
            .unwrap()
            .contains("out of range"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decode_frame_rejects_corrupt_payloads() {
        let round = RoundRequests::new(vec![n(1), n(1), n(4)]);
        let mut payload = Vec::new();
        encode_frame(3, &round, &mut payload);
        assert_eq!(decode_frame(&payload, 3, 16).unwrap(), round);
        // wrong t
        assert!(decode_frame(&payload, 4, 16)
            .unwrap_err()
            .contains("out-of-order round"));
        // origin out of universe
        assert!(decode_frame(&payload, 3, 2)
            .unwrap_err()
            .contains("out of range"));
        // trailing bytes
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_frame(&long, 3, 16).unwrap_err().contains("trailing"));
        // truncated payload
        assert!(decode_frame(&payload[..payload.len() - 1], 3, 16)
            .unwrap_err()
            .contains("truncated"));
        // zero delta == unsorted origins: [t=0, k=2, (5,1), (+0,1)]
        let unsorted = [0u8, 2, 5, 1, 0, 1];
        assert!(decode_frame(&unsorted, 0, 16)
            .unwrap_err()
            .contains("unsorted"));
        // zero count
        let zero_count = [0u8, 1, 5, 0];
        assert!(decode_frame(&zero_count, 0, 16)
            .unwrap_err()
            .contains("zero count"));
        // absurd k in a tiny payload fails before allocating
        let huge_k = [0u8, 0xff, 0xff, 0xff, 0xff, 0x0f];
        assert!(decode_frame(&huge_k, 0, 16).is_err());
    }

    #[test]
    fn sniffers_detect_format() {
        assert!(!is_packed_bytes(b"{\"origins\":[]}"));
        assert!(!is_packed_bytes(b"FXTR"));
        let path = temp("flexserve-packed-sniff.jsonl");
        std::fs::write(&path, "{\"t\":0,\"origins\":[1]}\n").unwrap();
        assert!(!is_packed_file(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
        assert!(is_packed_file("/nonexistent/trace.ftr").is_err());
    }

    #[test]
    fn pack_jsonl_file_streams_and_refuses_packed_input() {
        let trace = sample_trace(9);
        let jsonl = temp("flexserve-packed-from.jsonl");
        let out = temp("flexserve-packed-from.ftr");
        std::fs::write(&jsonl, trace.to_jsonl()).unwrap();
        let summary = pack_jsonl_file(&jsonl, &out).unwrap();
        assert_eq!(summary.rounds, 9);
        assert_eq!(
            std::fs::read(&out).unwrap(),
            pack_trace(&trace),
            "file pack == in-memory pack"
        );
        assert!(pack_jsonl_file(&out, &jsonl)
            .unwrap_err()
            .contains("already a packed trace"));
        std::fs::remove_file(&jsonl).unwrap();
        std::fs::remove_file(&out).unwrap();
    }
}
