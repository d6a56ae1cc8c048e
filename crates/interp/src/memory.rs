//! Byte-addressable linear memory with typed accessors.
//!
//! Address 0 is reserved as null; allocations are 8-byte aligned. The
//! memory is the single shared address space of a simulated run — the
//! "host" arrays of a benchmark live here, and the simulated heterogeneous
//! APIs read and write them directly (data-transfer *cost* is modeled
//! separately by `hetero`; correctness uses this one space).

use ssair::Type;

/// One typed allocation, as recorded by [`Memory::alloc`].
///
/// The differential validator replays a benchmark's `setup` on two
/// machines and then compares exactly these arrays element-wise; the
/// record is what makes that comparison typed and in-bounds by
/// construction (no whole-memory byte scans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Base address.
    pub base: u64,
    /// Element type.
    pub elem: Type,
    /// Number of elements.
    pub count: usize,
}

impl Allocation {
    /// Size of the allocation in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.elem.size_bytes() * self.count
    }
}

/// The error for a program allocation past [`Memory::MAX_BYTES`] (cold:
/// no correct program reaches it).
#[cold]
#[inline(never)]
fn over_cap(ty: Type, n: usize) -> String {
    format!(
        "memory limit exceeded: alloca of {n} x {ty} would grow memory past {} bytes",
        Memory::MAX_BYTES
    )
}

/// The error for an `n`-byte access at `addr` that [`Memory::offset`]
/// refused (cold: no correct program reaches it).
#[cold]
#[inline(never)]
fn access_fault(addr: u64, n: usize) -> String {
    if addr == 0 {
        "null pointer access".into()
    } else {
        format!("out-of-bounds access at {addr} (+{n})")
    }
}

/// Linear memory.
#[derive(Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    allocations: Vec<Allocation>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl Memory {
    /// The largest memory image a program `alloca` may grow the memory to
    /// (1 GiB). Harness allocations ([`Memory::alloc`]) are not capped.
    pub const MAX_BYTES: usize = 1 << 30;

    /// Creates an empty memory (address 0 reserved).
    #[must_use]
    pub fn new() -> Memory {
        Memory {
            bytes: vec![0; 8],
            allocations: Vec::new(),
        }
    }

    /// Current size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Every typed allocation made so far, in allocation order. Untyped
    /// [`Memory::alloc_bytes`] calls are not recorded.
    #[must_use]
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// Allocates `n` bytes, zero-initialized, 8-byte aligned.
    pub fn alloc_bytes(&mut self, n: usize) -> u64 {
        let addr = (self.bytes.len() + 7) & !7;
        self.bytes.resize(addr + n, 0);
        addr as u64
    }

    /// Allocates an array of `n` elements of `ty` and records it (see
    /// [`Memory::allocations`]).
    pub fn alloc(&mut self, ty: Type, n: usize) -> u64 {
        let base = self.alloc_bytes(ty.size_bytes() * n);
        self.allocations.push(Allocation {
            base,
            elem: ty,
            count: n,
        });
        base
    }

    /// Allocates like [`Memory::alloc`] on behalf of the executed program
    /// (`alloca`): fails instead of growing the memory image past
    /// [`Memory::MAX_BYTES`], so a hostile size is an error, not an abort.
    pub fn try_alloc(&mut self, ty: Type, n: usize) -> Result<u64, String> {
        self.alloc_within_cap(ty, n).ok_or_else(|| over_cap(ty, n))
    }

    /// [`Memory::try_alloc`] without the message: `None` leaves the memory
    /// untouched.
    // Out of line (as are the cold error constructors): code inlined into
    // the VM's dispatch loop slowed its suite-run programs by up to ~10%.
    #[inline(never)]
    pub(crate) fn alloc_within_cap(&mut self, ty: Type, n: usize) -> Option<u64> {
        let base = (self.bytes.len() + 7) & !7;
        let end = ty
            .size_bytes()
            .checked_mul(n)
            .and_then(|bytes| bytes.checked_add(base))?;
        (end <= Memory::MAX_BYTES).then(|| self.alloc(ty, n))
    }

    /// The byte offset of the `n`-byte access at `addr`, or `None` when it
    /// is null, wraps past the top of the address space or ends past the
    /// image. These are the only conditions under which a typed accessor
    /// fails.
    #[inline]
    pub(crate) fn offset(&self, addr: u64, n: usize) -> Option<usize> {
        let a = addr as usize;
        if addr == 0 || a.checked_add(n).is_none_or(|end| end > self.bytes.len()) {
            return None;
        }
        Some(a)
    }

    /// The `N` bytes at `addr`, or `None` where [`Memory::offset`] refuses
    /// the access: the typed loads without their messages, for the VM's
    /// dispatch loop.
    #[inline]
    pub(crate) fn read<const N: usize>(&self, addr: u64) -> Option<[u8; N]> {
        let a = self.offset(addr, N)?;
        self.bytes[a..].first_chunk().copied()
    }

    /// Writes `v` at `addr`, or returns `None` (writing nothing) where
    /// [`Memory::offset`] refuses the access.
    #[inline]
    pub(crate) fn write<const N: usize>(&mut self, addr: u64, v: [u8; N]) -> Option<()> {
        let a = self.offset(addr, N)?;
        *self.bytes[a..].first_chunk_mut()? = v;
        Some(())
    }

    fn load<const N: usize>(&self, addr: u64) -> Result<[u8; N], String> {
        self.read(addr).ok_or_else(|| access_fault(addr, N))
    }

    fn store<const N: usize>(&mut self, addr: u64, v: [u8; N]) -> Result<(), String> {
        self.write(addr, v).ok_or_else(|| access_fault(addr, N))
    }

    /// Loads an `i64` (or pointer) value.
    pub fn load_i64(&self, addr: u64) -> Result<i64, String> {
        self.load(addr).map(i64::from_le_bytes)
    }

    /// Stores an `i64` (or pointer) value.
    pub fn store_i64(&mut self, addr: u64, v: i64) -> Result<(), String> {
        self.store(addr, v.to_le_bytes())
    }

    /// Loads an `i32` value (sign-preserved in `i64`).
    pub fn load_i32(&self, addr: u64) -> Result<i64, String> {
        self.load(addr).map(|b| i64::from(i32::from_le_bytes(b)))
    }

    /// Stores an `i32` value (truncating).
    pub fn store_i32(&mut self, addr: u64, v: i64) -> Result<(), String> {
        self.store(addr, (v as i32).to_le_bytes())
    }

    /// Loads an `i1` value.
    pub fn load_i8(&self, addr: u64) -> Result<i64, String> {
        self.load(addr).map(|[b]| i64::from(b))
    }

    /// Stores an `i1` value.
    pub fn store_i8(&mut self, addr: u64, v: i64) -> Result<(), String> {
        self.store(addr, [(v & 1) as u8])
    }

    /// Loads an `f64`.
    pub fn load_f64(&self, addr: u64) -> Result<f64, String> {
        self.load(addr).map(f64::from_le_bytes)
    }

    /// Stores an `f64`.
    pub fn store_f64(&mut self, addr: u64, v: f64) -> Result<(), String> {
        self.store(addr, v.to_le_bytes())
    }

    /// Loads an `f32` widened to `f64`.
    pub fn load_f32(&self, addr: u64) -> Result<f64, String> {
        self.load(addr).map(|b| f64::from(f32::from_le_bytes(b)))
    }

    /// Stores an `f32` (narrowing).
    pub fn store_f32(&mut self, addr: u64, v: f64) -> Result<(), String> {
        self.store(addr, (v as f32).to_le_bytes())
    }

    // ----- bulk helpers for harnesses and tests -----

    /// Allocates and fills an `f64` array; returns its address.
    pub fn alloc_f64_slice(&mut self, data: &[f64]) -> u64 {
        let addr = self.alloc(Type::F64, data.len());
        for (i, &v) in data.iter().enumerate() {
            self.store_f64(addr + 8 * i as u64, v).expect("in bounds");
        }
        addr
    }

    /// Allocates and fills an `i32` array; returns its address.
    pub fn alloc_i32_slice(&mut self, data: &[i32]) -> u64 {
        let addr = self.alloc(Type::I32, data.len());
        for (i, &v) in data.iter().enumerate() {
            self.store_i32(addr + 4 * i as u64, i64::from(v))
                .expect("in bounds");
        }
        addr
    }

    /// Reads back an `f64` array.
    pub fn read_f64_slice(&self, addr: u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| self.load_f64(addr + 8 * i as u64).expect("in bounds"))
            .collect()
    }

    /// Reads back an `i32` array.
    pub fn read_i32_slice(&self, addr: u64, n: usize) -> Vec<i64> {
        (0..n)
            .map(|i| self.load_i32(addr + 4 * i as u64).expect("in bounds"))
            .collect()
    }

    // ----- parallel-backend support -----

    /// The raw byte image (for snapshotting and bitwise comparison).
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access to the raw byte image. Used by parallel executors
    /// to merge disjoint worker writes back; the allocation table is
    /// unaffected.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Splits the memory into a shared read view of everything *outside*
    /// `[base, base + len)` and an exclusive output window over that
    /// range. The view is `Sync` (workers share it), the window is `Send`
    /// and can be further [`OutWindow::split_at`] into disjoint
    /// per-worker slices — together they are the threading contract of
    /// the parallel kernel hosts: concurrent reads anywhere except the
    /// output, exclusive writes inside it.
    pub fn split_out(
        &mut self,
        base: u64,
        len: usize,
    ) -> Result<(ReadView<'_>, OutWindow<'_>), String> {
        if base == 0 {
            return Err("null pointer output window".into());
        }
        let b = base as usize;
        if b.checked_add(len).is_none_or(|end| end > self.bytes.len()) {
            return Err(format!("out-of-bounds output window at {base} (+{len})"));
        }
        let (lo, rest) = self.bytes.split_at_mut(b);
        let (win, hi) = rest.split_at_mut(len);
        Ok((
            ReadView {
                lo,
                hi,
                win_start: b,
                win_end: b + len,
            },
            OutWindow {
                bytes: win,
                start: b,
            },
        ))
    }
}

/// Read-only view of a [`Memory`] with one address range carved out (the
/// output window of a parallel kernel). Loads that land inside the
/// carved-out range fail with a descriptive error — an input overlapping
/// the output means the independence certificate was wrong, and the
/// parallel backend reports that instead of racing.
pub struct ReadView<'a> {
    lo: &'a [u8],
    hi: &'a [u8],
    win_start: usize,
    win_end: usize,
}

impl ReadView<'_> {
    fn slice(&self, addr: u64, n: usize) -> Result<&[u8], String> {
        if addr == 0 {
            return Err("null pointer access".into());
        }
        let a = addr as usize;
        let Some(end) = a.checked_add(n) else {
            return Err(format!("out-of-bounds access at {addr} (+{n})"));
        };
        if end <= self.win_start {
            return Ok(&self.lo[a..end]);
        }
        if a >= self.win_end {
            let off = a - self.win_end;
            if off + n > self.hi.len() {
                return Err(format!("out-of-bounds access at {addr} (+{n})"));
            }
            return Ok(&self.hi[off..off + n]);
        }
        Err(format!(
            "read at {addr} (+{n}) overlaps the parallel output window [{}, {}) — \
             input/output alias violates the independence certificate",
            self.win_start, self.win_end
        ))
    }

    /// Loads an `f64`.
    pub fn load_f64(&self, addr: u64) -> Result<f64, String> {
        Ok(f64::from_le_bytes(
            self.slice(addr, 8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Loads an `i64` (or pointer) value.
    pub fn load_i64(&self, addr: u64) -> Result<i64, String> {
        Ok(i64::from_le_bytes(
            self.slice(addr, 8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Loads an `i32` value (sign-preserved in `i64`).
    pub fn load_i32(&self, addr: u64) -> Result<i64, String> {
        Ok(i64::from(i32::from_le_bytes(
            self.slice(addr, 4)?.try_into().expect("4 bytes"),
        )))
    }
}

/// Exclusive, bounds-checked window over one output range of a
/// [`Memory`]. Addresses are absolute (same address space as the parent
/// memory); [`OutWindow::split_at`] carves it into disjoint per-worker
/// windows.
pub struct OutWindow<'a> {
    bytes: &'a mut [u8],
    start: usize,
}

impl<'a> OutWindow<'a> {
    /// Absolute address of the first byte of the window.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.start as u64
    }

    /// Window length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn offset(&self, addr: u64, n: usize) -> Result<usize, String> {
        let a = addr as usize;
        if a < self.start
            || a.checked_add(n)
                .is_none_or(|end| end > self.start + self.bytes.len())
        {
            return Err(format!(
                "access at {addr} (+{n}) outside the output window [{}, {})",
                self.start,
                self.start + self.bytes.len()
            ));
        }
        Ok(a - self.start)
    }

    /// Loads an `f64` from inside the window (absolute address).
    pub fn load_f64(&self, addr: u64) -> Result<f64, String> {
        let o = self.offset(addr, 8)?;
        Ok(f64::from_le_bytes(
            self.bytes[o..o + 8].try_into().expect("8 bytes"),
        ))
    }

    /// Stores an `f64` inside the window (absolute address).
    pub fn store_f64(&mut self, addr: u64, v: f64) -> Result<(), String> {
        let o = self.offset(addr, 8)?;
        self.bytes[o..o + 8].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Splits at absolute address `addr`, returning the windows
    /// `[base, addr)` and `[addr, base + len)`.
    pub fn split_at(self, addr: u64) -> Result<(OutWindow<'a>, OutWindow<'a>), String> {
        let a = addr as usize;
        if a < self.start || a > self.start + self.bytes.len() {
            return Err(format!(
                "split at {addr} outside the output window [{}, {})",
                self.start,
                self.start + self.bytes.len()
            ));
        }
        let mid = a - self.start;
        let (l, r) = self.bytes.split_at_mut(mid);
        Ok((
            OutWindow {
                bytes: l,
                start: self.start,
            },
            OutWindow { bytes: r, start: a },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        let mut m = Memory::new();
        let a = m.alloc(Type::F64, 2);
        m.store_f64(a, 1.5).unwrap();
        m.store_f64(a + 8, -2.5).unwrap();
        assert_eq!(m.load_f64(a).unwrap(), 1.5);
        assert_eq!(m.load_f64(a + 8).unwrap(), -2.5);
        let b = m.alloc(Type::I32, 1);
        m.store_i32(b, -7).unwrap();
        assert_eq!(m.load_i32(b).unwrap(), -7);
    }

    #[test]
    fn rejects_null_and_out_of_bounds() {
        let mut m = Memory::new();
        assert!(m.load_f64(0).is_err());
        let a = m.alloc(Type::F64, 1);
        assert!(m.load_f64(a + 8).is_err());
        assert!(m.store_i64(0, 1).is_err());
    }

    #[test]
    fn addresses_near_the_top_of_the_space_are_out_of_bounds() {
        // `p[-2]` on the first allocation: 8 - 16 wraps to 2^64 - 8,
        // whose end would wrap past zero.
        let mut m = Memory::new();
        let a = m.alloc(Type::F64, 4);
        let wrapped = a.wrapping_sub(16);
        assert_eq!(wrapped, 0xFFFF_FFFF_FFFF_FFF8);
        let e = m.load_f64(wrapped).unwrap_err();
        assert!(e.contains("out-of-bounds"), "{e}");
        assert!(m.store_f64(wrapped, 1.0).is_err());
        assert!(m.split_out(wrapped, 16).is_err());
        // The parallel hosts' views check the same way.
        let (view, mut win) = m.split_out(a, 16).unwrap();
        assert!(view.load_f64(wrapped).is_err());
        assert!(win.load_f64(wrapped).is_err());
        assert!(win.store_f64(wrapped, 1.0).is_err());
    }

    #[test]
    fn fast_accessors_fail_exactly_where_the_typed_ones_do() {
        // The VM's message-free `read`/`write` against the typed accessors
        // at the boundaries: null, the last access that fits, one byte
        // past it, and an address whose end wraps past the top.
        let mut m = Memory::new();
        m.alloc(Type::I64, 3);
        let len = m.size() as u64;
        for (addr, fits) in [
            (0, false),
            (len - 8, true),
            (len - 7, false),
            (u64::MAX - 2, false),
        ] {
            assert_eq!(m.read::<8>(addr).is_some(), fits, "read at {addr}");
            assert_eq!(m.load_f64(addr).is_ok(), fits, "load_f64 at {addr}");
            assert_eq!(m.write(addr, [0; 8]).is_some(), fits, "write at {addr}");
            assert_eq!(m.store_i64(addr, 0).is_ok(), fits, "store_i64 at {addr}");
        }
        for (addr, fits) in [
            (0, false),
            (len - 4, true),
            (len - 3, false),
            (u64::MAX - 2, false),
        ] {
            assert_eq!(m.read::<4>(addr).is_some(), fits, "read at {addr}");
            assert_eq!(m.load_i32(addr).is_ok(), fits, "load_i32 at {addr}");
            assert_eq!(m.write(addr, [0; 4]).is_some(), fits, "write at {addr}");
            assert_eq!(m.store_f32(addr, 0.0).is_ok(), fits, "store_f32 at {addr}");
        }
        for (addr, fits) in [
            (0, false),
            (len - 1, true),
            (len, false),
            (u64::MAX - 2, false),
        ] {
            assert_eq!(m.read::<1>(addr).is_some(), fits, "read at {addr}");
            assert_eq!(m.load_i8(addr).is_ok(), fits, "load_i8 at {addr}");
        }
        // A refused write leaves the image untouched.
        let image = m.bytes().to_vec();
        assert!(m.write(len - 7, [0xFF; 8]).is_none());
        assert_eq!(m.bytes(), &image[..]);
    }

    #[test]
    fn program_allocations_are_capped() {
        let mut m = Memory::new();
        let e = m.try_alloc(Type::F64, 4_000_000_000).unwrap_err();
        assert!(e.contains("memory limit exceeded"), "{e}");
        assert!(m.try_alloc(Type::F64, usize::MAX).is_err(), "size overflow");
        assert_eq!(m.size(), 8, "a refused allocation leaves memory untouched");
        assert!(m.allocations().is_empty());
        let a = m.try_alloc(Type::F64, 4).unwrap();
        assert_eq!(m.allocations()[0].base, a);
    }

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let mut m = Memory::new();
        let a = m.alloc(Type::I32, 3); // 12 bytes
        let b = m.alloc(Type::F64, 1);
        assert_eq!(a % 8, 0);
        assert_eq!(b % 8, 0);
        assert!(b >= a + 12);
    }

    #[test]
    fn typed_allocations_are_recorded() {
        let mut m = Memory::new();
        let a = m.alloc_f64_slice(&[1.0, 2.0]);
        let b = m.alloc(Type::I32, 3);
        let _raw = m.alloc_bytes(16); // untyped: not recorded
        assert_eq!(
            m.allocations(),
            &[
                Allocation {
                    base: a,
                    elem: Type::F64,
                    count: 2
                },
                Allocation {
                    base: b,
                    elem: Type::I32,
                    count: 3
                },
            ]
        );
        assert_eq!(m.allocations()[0].size_bytes(), 16);
    }

    #[test]
    fn split_out_gives_disjoint_view_and_window() {
        let mut m = Memory::new();
        let a = m.alloc_f64_slice(&[1.0, 2.0]);
        let out = m.alloc_f64_slice(&[0.0, 0.0, 0.0]);
        let (view, mut win) = m.split_out(out, 24).unwrap();
        // Reads outside the window succeed, including past it.
        assert_eq!(view.load_f64(a).unwrap(), 1.0);
        assert_eq!(view.load_f64(a + 8).unwrap(), 2.0);
        // Reads inside the window are refused (alias = broken certificate).
        let err = view.load_f64(out + 8).unwrap_err();
        assert!(err.contains("independence certificate"), "{err}");
        assert!(view.load_f64(0).is_err());
        // Window stores land in the parent memory.
        win.store_f64(out + 16, 7.5).unwrap();
        assert_eq!(win.load_f64(out + 16).unwrap(), 7.5);
        assert!(win.store_f64(a, 0.0).is_err());
        assert!(win.store_f64(out + 24, 0.0).is_err());
        assert_eq!(m.read_f64_slice(out, 3), vec![0.0, 0.0, 7.5]);
    }

    #[test]
    fn out_window_splits_into_disjoint_chunks() {
        let mut m = Memory::new();
        let out = m.alloc_f64_slice(&[0.0; 4]);
        let (_view, win) = m.split_out(out, 32).unwrap();
        let (mut l, mut r) = win.split_at(out + 16).unwrap();
        assert_eq!(l.base(), out);
        assert_eq!(l.len(), 16);
        assert_eq!(r.base(), out + 16);
        assert_eq!(r.len(), 16);
        l.store_f64(out + 8, 1.0).unwrap();
        r.store_f64(out + 16, 2.0).unwrap();
        assert!(l.store_f64(out + 16, 9.0).is_err());
        assert!(r.store_f64(out + 8, 9.0).is_err());
        assert_eq!(m.read_f64_slice(out, 4), vec![0.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn split_out_rejects_null_and_oob_windows() {
        let mut m = Memory::new();
        assert!(m.split_out(0, 8).is_err());
        let a = m.alloc_f64_slice(&[1.0]);
        assert!(m.split_out(a, 16).is_err());
    }

    #[test]
    fn memory_clone_is_independent() {
        let mut m = Memory::new();
        let a = m.alloc_f64_slice(&[1.0]);
        let mut c = m.clone();
        c.store_f64(a, 2.0).unwrap();
        assert_eq!(m.load_f64(a).unwrap(), 1.0);
        assert_eq!(c.load_f64(a).unwrap(), 2.0);
        assert_eq!(m.allocations(), c.allocations());
    }

    #[test]
    fn slice_helpers_round_trip() {
        let mut m = Memory::new();
        let a = m.alloc_f64_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(m.read_f64_slice(a, 3), vec![1.0, 2.0, 3.0]);
        let b = m.alloc_i32_slice(&[-1, 5]);
        assert_eq!(m.read_i32_slice(b, 2), vec![-1, 5]);
    }
}
