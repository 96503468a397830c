//! Flat device memory with a first-fit allocator.

use crate::{GpuError, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Allocation alignment (also the cache-line size, so allocations never
/// share a line).
pub const ALLOC_ALIGN: u64 = 256;

/// Device global memory: a flat byte space plus an allocator.
///
/// The bytes live in little-endian 4-byte words: byte `a` is bits
/// `8 * (a % 4)..` of word `a / 4`. Backing the store with `u32`s makes
/// every word 4-byte aligned by construction, so a launch can view the
/// words as `AtomicU32`s.
///
/// Address 0 is reserved (never handed out) so that null-pointer bugs in
/// kernels fault instead of silently reading the first allocation.
#[derive(Debug)]
pub struct Memory {
    words: Vec<u32>,
    /// Capacity in bytes; the last word may extend past it.
    len: u64,
    /// Start address → length of live allocations.
    allocs: BTreeMap<u64, u64>,
    /// Bump pointer; freed blocks are merged with adjacent free blocks
    /// (and released back into the bump region when they touch it), then
    /// reused first-fit.
    bump: u64,
    free: Vec<(u64, u64)>,
}

impl Memory {
    /// Creates a memory of `capacity` bytes.
    pub fn new(capacity: u64) -> Memory {
        Memory {
            words: vec![0u32; capacity.div_ceil(4) as usize],
            len: capacity,
            allocs: BTreeMap::new(),
            bump: ALLOC_ALIGN, // reserve the null page
            free: Vec::new(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.len
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.allocs.values().sum()
    }

    /// Number of live allocations (leak accounting: code-cache eviction
    /// tests assert this returns to its baseline after a module unload).
    pub fn live_allocs(&self) -> usize {
        self.allocs.len()
    }

    /// Allocates `len` bytes (rounded up to [`ALLOC_ALIGN`]); returns the
    /// device address.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfMemory`] when no region fits.
    pub fn alloc(&mut self, len: u64) -> Result<u64> {
        let size = len.max(1).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        // First fit among freed blocks.
        if let Some(pos) = self.free.iter().position(|(_, flen)| *flen >= size) {
            let (addr, flen) = self.free.remove(pos);
            if flen > size {
                self.free.push((addr + size, flen - size));
            }
            self.allocs.insert(addr, size);
            return Ok(addr);
        }
        let addr = self.bump;
        let end = addr
            .checked_add(size)
            .ok_or(GpuError::OutOfMemory { requested: size, available: 0 })?;
        if end > self.capacity() {
            return Err(GpuError::OutOfMemory {
                requested: size,
                available: self.capacity().saturating_sub(self.bump),
            });
        }
        self.bump = end;
        self.allocs.insert(addr, size);
        Ok(addr)
    }

    /// Frees an allocation made by [`Memory::alloc`].
    ///
    /// # Errors
    ///
    /// [`GpuError::BadAddress`] if `addr` is not a live allocation base.
    pub fn free(&mut self, addr: u64) -> Result<()> {
        let len = self.allocs.remove(&addr).ok_or(GpuError::BadAddress { addr, len: 0 })?;
        let (mut addr, mut len) = (addr, len);
        // Coalesce with free blocks adjacent on either side.
        while let Some(pos) = self.free.iter().position(|&(a, l)| a + l == addr || addr + len == a)
        {
            let (a, l) = self.free.swap_remove(pos);
            addr = addr.min(a);
            len += l;
        }
        if addr + len == self.bump {
            // The block reaches the frontier: return it to the bump region.
            self.bump = addr;
        } else {
            self.free.push((addr, len));
        }
        Ok(())
    }

    fn check(&self, addr: u64, len: u64) -> Result<()> {
        let end = addr.checked_add(len).ok_or(GpuError::BadAddress { addr, len })?;
        if addr == 0 || end > self.capacity() {
            return Err(GpuError::BadAddress { addr, len });
        }
        Ok(())
    }

    /// Reads bytes at a device address.
    ///
    /// # Errors
    ///
    /// [`GpuError::BadAddress`] for out-of-range accesses.
    pub fn read(&self, addr: u64, out: &mut [u8]) -> Result<()> {
        self.check(addr, out.len() as u64)?;
        gather(addr, out, |w| self.words[w]);
        Ok(())
    }

    /// Writes bytes at a device address.
    ///
    /// # Errors
    ///
    /// [`GpuError::BadAddress`] for out-of-range accesses.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        self.check(addr, bytes.len() as u64)?;
        scatter(addr, bytes, |w, mask, bits| {
            let word = &mut self.words[w];
            *word = (*word & !mask) | bits;
        });
        Ok(())
    }

    /// Reads a little-endian scalar of `len` (≤ 8) bytes.
    pub fn read_scalar(&self, addr: u64, len: usize) -> Result<u64> {
        let mut bytes = [0u8; 8];
        self.read(addr, &mut bytes[..len])?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Writes a little-endian scalar of `len` (≤ 8) bytes.
    pub fn write_scalar(&mut self, addr: u64, len: usize, v: u64) -> Result<()> {
        self.write(addr, &v.to_le_bytes()[..len])
    }

    /// A [`SharedMem`] view for the duration of a launch. The view borrows
    /// the backing store mutably, which pins out every other access path
    /// while CTAs execute.
    pub(crate) fn shared_view(&mut self) -> SharedMem<'_> {
        const _: () = assert!(std::mem::align_of::<u32>() == std::mem::align_of::<AtomicU32>());
        // SAFETY: `AtomicU32` has the size and bit validity of `u32`, and
        // the assertion above pins their alignments equal, so the word
        // slice reinterprets in place. The `&mut self` borrow lasts as
        // long as the view, so no non-atomic access can alias the words
        // while it exists.
        let words = unsafe {
            std::slice::from_raw_parts(
                self.words.as_mut_ptr().cast::<AtomicU32>(),
                self.words.len(),
            )
        };
        SharedMem { words, len: self.len, atomic_lock: LockLine(Mutex::new(())) }
    }
}

/// Copies the bytes at `addr` out of a word store, one `load` per word
/// touched. The caller has bounds-checked the access.
fn gather(addr: u64, out: &mut [u8], load: impl Fn(usize) -> u32) {
    let mut a = addr as usize;
    let mut out = out;
    while !out.is_empty() {
        let off = a % 4;
        let n = if off == 0 && out.len() >= 4 {
            let whole = out.len() / 4 * 4;
            for (k, chunk) in out[..whole].chunks_exact_mut(4).enumerate() {
                chunk.copy_from_slice(&load(a / 4 + k).to_le_bytes());
            }
            whole
        } else {
            let n = (4 - off).min(out.len());
            out[..n].copy_from_slice(&load(a / 4).to_le_bytes()[off..off + n]);
            n
        };
        out = &mut std::mem::take(&mut out)[n..];
        a += n;
    }
}

/// Writes `bytes` at `addr` into a word store: for every word touched,
/// `store(word, mask, bits)` must replace the bytes of the word that
/// `mask` selects with those of `bits`. A fully covered word has an
/// all-ones mask. The caller has bounds-checked the access.
fn scatter(addr: u64, bytes: &[u8], mut store: impl FnMut(usize, u32, u32)) {
    let mut a = addr as usize;
    let mut rest = bytes;
    while !rest.is_empty() {
        let off = a % 4;
        let n = if off == 0 && rest.len() >= 4 {
            let whole = rest.len() / 4 * 4;
            for (k, chunk) in rest[..whole].chunks_exact(4).enumerate() {
                let bits = u32::from_le_bytes(chunk.try_into().expect("chunks of four bytes"));
                store(a / 4 + k, u32::MAX, bits);
            }
            whole
        } else {
            let n = (4 - off).min(rest.len());
            let mut word = [0u8; 4];
            word[off..off + n].copy_from_slice(&rest[..n]);
            store(a / 4, ((1u32 << (8 * n)) - 1) << (8 * off), u32::from_le_bytes(word));
            n
        };
        rest = &rest[n..];
        a += n;
    }
}

/// A launch-scoped view of device memory that CTA worker threads share.
///
/// Every access goes through relaxed `AtomicU32` loads and stores (plain
/// moves on x86 and ARM), one per word touched, never through atomics of
/// another size. A store that covers a whole word is a single store; a
/// sub-word or unaligned store updates its partial words with a
/// compare-exchange, so concurrent writes to different bytes of one word
/// are never lost. A guest kernel with a cross-CTA data race therefore
/// produces unspecified *values* — as it would on real hardware — but
/// never undefined behaviour in the host process. Atomic
/// read-modify-writes additionally serialize under `atomic_lock`, making
/// them linearizable across all CTA workers.
pub(crate) struct SharedMem<'a> {
    words: &'a [AtomicU32],
    len: u64,
    atomic_lock: LockLine,
}

/// The atomics lock on a cache line of its own, so that lock traffic does
/// not keep invalidating the `words`/`len` fields every access reads.
#[repr(align(128))]
struct LockLine(Mutex<()>);

impl SharedMem<'_> {
    fn check(&self, addr: u64, len: u64) -> Result<()> {
        let end = addr.checked_add(len).ok_or(GpuError::BadAddress { addr, len })?;
        if addr == 0 || end > self.len {
            return Err(GpuError::BadAddress { addr, len });
        }
        Ok(())
    }

    /// Copies bytes at a device address into `out`.
    pub fn read_into(&self, addr: u64, out: &mut [u8]) -> Result<()> {
        self.check(addr, out.len() as u64)?;
        gather(addr, out, |w| self.words[w].load(Ordering::Relaxed));
        Ok(())
    }

    /// Reads a little-endian scalar of `len` (≤ 8) bytes.
    pub fn read_scalar(&self, addr: u64, len: usize) -> Result<u64> {
        let mut bytes = [0u8; 8];
        self.read_into(addr, &mut bytes[..len])?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Writes a little-endian scalar of `len` (≤ 8) bytes.
    pub fn write_scalar(&self, addr: u64, len: usize, v: u64) -> Result<()> {
        self.check(addr, len as u64)?;
        scatter(addr, &v.to_le_bytes()[..len], |w, mask, bits| {
            let word = &self.words[w];
            if mask == u32::MAX {
                word.store(bits, Ordering::Relaxed);
            } else {
                let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                    Some((old & !mask) | bits)
                });
            }
        });
        Ok(())
    }

    /// Atomically applies `f` to the scalar at `addr`, returning the old
    /// value. All atomics across all CTA workers serialize on one lock,
    /// which keeps them linearizable. Their *order* is still the CTA
    /// schedule's, though: only commutative operations whose old value is
    /// discarded yield schedule-independent memory (EXCH/CAS, and any
    /// atomic whose returned old value the kernel stores, observe CTA
    /// completion order — see [`crate::Scheduler`]).
    pub fn atomic_rmw(&self, addr: u64, len: usize, f: impl FnOnce(u64) -> u64) -> Result<u64> {
        let _guard = self.atomic_lock.0.lock().expect("a CTA worker panicked inside an atomic");
        let old = self.read_scalar(addr, len)?;
        self.write_scalar(addr, len, f(old))?;
        Ok(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = Memory::new(1 << 20);
        let a = m.alloc(10).unwrap();
        let b = m.alloc(300).unwrap();
        assert_eq!(a % ALLOC_ALIGN, 0);
        assert_eq!(b % ALLOC_ALIGN, 0);
        assert!(b >= a + ALLOC_ALIGN);
        assert_ne!(a, 0, "null page must stay reserved");
    }

    #[test]
    fn freed_blocks_are_reused() {
        let mut m = Memory::new(1 << 20);
        let a = m.alloc(1000).unwrap();
        m.free(a).unwrap();
        let b = m.alloc(512).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adjacent_free_blocks_coalesce() {
        let mut m = Memory::new(4 * ALLOC_ALIGN);
        // Fill the heap with three adjacent blocks (plus the null page).
        let a = m.alloc(ALLOC_ALIGN).unwrap();
        let b = m.alloc(ALLOC_ALIGN).unwrap();
        let c = m.alloc(ALLOC_ALIGN).unwrap();
        assert!(m.alloc(1).is_err(), "heap should be full");
        // Free out of order; the blocks must merge (and rejoin the bump
        // region) so one allocation spanning all three succeeds.
        m.free(a).unwrap();
        m.free(c).unwrap();
        m.free(b).unwrap();
        let big = m.alloc(3 * ALLOC_ALIGN).unwrap();
        assert_eq!(big, a);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = Memory::new(1 << 16);
        let a = m.alloc(64).unwrap();
        m.write(a, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        m.read(a, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
        m.write_scalar(a + 8, 8, 0xdead_beef_cafe).unwrap();
        assert_eq!(m.read_scalar(a + 8, 8).unwrap(), 0xdead_beef_cafe);
    }

    #[test]
    fn null_and_oob_accesses_fail() {
        let mut m = Memory::new(4096);
        assert!(m.read_scalar(0, 4).is_err());
        assert!(m.write(1 << 30, &[0]).is_err());
        assert!(matches!(m.alloc(1 << 30), Err(GpuError::OutOfMemory { .. })));
        assert!(m.free(12345).is_err());
    }

    #[test]
    fn shared_scalars_round_trip_at_every_alignment() {
        let mut m = Memory::new(1 << 12);
        let view = m.shared_view();
        for len in [1, 2, 4, 8] {
            for off in 0..8u64 {
                let a = 256 + 16 * off + off; // word offsets 0..=3, some straddling
                let v = 0x8877_6655_4433_2211u64 >> (64 - 8 * len);
                view.write_scalar(a, len, v).unwrap();
                assert_eq!(view.read_scalar(a, len).unwrap(), v, "len {len} at 0x{a:x}");
                // Neighbouring bytes are untouched.
                assert_eq!(view.read_scalar(a - 1, 1).unwrap(), 0, "len {len} at 0x{a:x}");
                assert_eq!(view.read_scalar(a + len as u64, 1).unwrap(), 0);
                view.write_scalar(a, len, 0).unwrap();
            }
        }
    }

    #[test]
    fn shared_scalar_straddling_two_words_round_trips() {
        let mut m = Memory::new(1 << 12);
        let view = m.shared_view();
        view.write_scalar(0x102, 4, 0xa1b2_c3d4).unwrap();
        assert_eq!(view.read_scalar(0x100, 4).unwrap(), 0xc3d4_0000);
        assert_eq!(view.read_scalar(0x104, 4).unwrap(), 0x0000_a1b2);
        assert_eq!(view.read_scalar(0x102, 4).unwrap(), 0xa1b2_c3d4);
        // An 8-byte scalar at a word-unaligned address spans three words.
        view.write_scalar(0x203, 8, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(view.read_scalar(0x203, 8).unwrap(), 0x0102_0304_0506_0708);
        let mut bytes = [0u8; 8];
        m.read(0x203, &mut bytes).unwrap();
        assert_eq!(u64::from_le_bytes(bytes), 0x0102_0304_0506_0708);
    }

    #[test]
    fn read_into_at_unaligned_offsets_and_lengths() {
        let mut m = Memory::new(1 << 12);
        let pattern: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        m.write(0x100, &pattern).unwrap();
        let view = m.shared_view();
        for start in 0..8usize {
            for len in 0..=17usize {
                let mut out = vec![0u8; len];
                view.read_into(0x100 + start as u64, &mut out).unwrap();
                assert_eq!(out, &pattern[start..start + len], "start {start} len {len}");
            }
        }
    }

    #[test]
    fn accesses_ending_past_the_last_word_fail() {
        // A capacity that is not a word multiple: the last word exists but
        // its tail bytes are outside the device.
        let mut m = Memory::new(4099);
        assert!(m.read_scalar(4095, 4).is_ok());
        assert_eq!(m.read_scalar(4096, 4), Err(GpuError::BadAddress { addr: 4096, len: 4 }));
        let view = m.shared_view();
        assert_eq!(view.read_scalar(4096, 4), Err(GpuError::BadAddress { addr: 4096, len: 4 }));
        assert_eq!(view.write_scalar(4098, 2, 0), Err(GpuError::BadAddress { addr: 4098, len: 2 }));
        assert!(view.read_into(4092, &mut [0u8; 8]).is_err());
        assert!(view.read_scalar(4098, 1).is_ok());
        assert_eq!(view.read_scalar(0, 4), Err(GpuError::BadAddress { addr: 0, len: 4 }));
        assert!(view.read_scalar(u64::MAX - 1, 4).is_err());
    }

    #[test]
    fn concurrent_sub_word_writes_to_one_word_are_never_lost() {
        const ROUNDS: u32 = 20_000;
        let mut m = Memory::new(1 << 12);
        let view = m.shared_view();
        let word = 0x100u64;
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for lane in 0..4u64 {
                let (view, start) = (&view, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..ROUNDS {
                        let v = u64::from((i as u8) ^ (lane as u8 * 0x40));
                        view.write_scalar(word + lane, 1, v).unwrap();
                        assert_eq!(view.read_scalar(word + lane, 1).unwrap(), v, "lane {lane}");
                    }
                });
            }
        });
        let last = (ROUNDS - 1) as u8;
        let expect = u32::from_le_bytes([last, last ^ 0x40, last ^ 0x80, last ^ 0xc0]);
        assert_eq!(view.read_scalar(word, 4).unwrap(), u64::from(expect));
    }

    #[test]
    fn in_use_tracks_allocations() {
        let mut m = Memory::new(1 << 20);
        assert_eq!(m.in_use(), 0);
        let a = m.alloc(100).unwrap();
        assert_eq!(m.in_use(), ALLOC_ALIGN);
        m.free(a).unwrap();
        assert_eq!(m.in_use(), 0);
    }
}
