//! Zero-copy storage backends: owned vectors or memory-mapped file regions.
//!
//! Every large array in the pipeline (CSR offsets/neighbors, index slabs,
//! hierarchy forests) is stored as a [`Buf<T>`] — an enum over
//! `Owned(Vec<T>)` and `Mapped` (a typed, alignment-checked view into a
//! read-only memory-mapped file). Kernels only ever see `&[T]` via `Deref`,
//! so the backend is invisible past the ingest layer; the payoff is that a
//! binary graph or `.etidx` index can be used without copying it into fresh
//! heap allocations, keeping ingest peak heap independent of graph size.
//!
//! Safety rules (see DESIGN.md "Storage backends"):
//!
//! * Typed views are only constructed over regions whose byte length and
//!   alignment were checked against the element type ([`MappedSlice::new`]).
//! * File length is validated against the header-declared size *before*
//!   mapping, so a view never extends past EOF (no SIGBUS on read).
//! * Zero-copy reinterpretation of the little-endian on-disk layout is only
//!   enabled on 64-bit little-endian unix targets; everywhere else loaders
//!   fall back to the owned decode path.

use std::fs::File;
use std::io;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

/// Marker for plain-old-data element types that may be reinterpreted from
/// raw mapped bytes: no padding, no invalid bit patterns, no destructor.
///
/// # Safety
///
/// Implementors must guarantee every bit pattern of `size_of::<Self>()`
/// bytes is a valid value of `Self`.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
#[cfg(target_pointer_width = "64")]
unsafe impl Pod for usize {}

/// Whether this target can reinterpret the little-endian on-disk arrays
/// in place. On other targets mapped loads transparently fall back to the
/// owned decode path.
pub const ZERO_COPY_TARGET: bool = cfg!(all(
    unix,
    target_pointer_width = "64",
    target_endian = "little"
));

/// Which storage backend a loader should produce.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Read-and-decode into owned `Vec`s (the historical behavior).
    #[default]
    Owned,
    /// Memory-map the file and hand out zero-copy typed views where the
    /// platform and alignment allow, falling back to owned decodes where
    /// they do not.
    Mapped,
}

impl Backend {
    /// Resolves the backend from the `ET_MMAP` environment variable
    /// (`1`/`true` → [`Backend::Mapped`]), defaulting to owned.
    pub fn from_env() -> Self {
        match std::env::var("ET_MMAP") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Backend::Mapped,
            _ => Backend::Owned,
        }
    }

    /// Whether this is the mapped backend.
    #[inline]
    pub fn is_mapped(self) -> bool {
        matches!(self, Backend::Mapped)
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Owned => "owned",
            Backend::Mapped => "mapped",
        })
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::{c_int, c_void};

    // Declared directly instead of through a crate: libc is always linked
    // into std on unix targets, and only these two symbols are needed.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    pub const MADV_SEQUENTIAL: c_int = 2;
    pub const MADV_WILLNEED: c_int = 3;
}

/// Access-pattern hints forwarded to `madvise` on mapped storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Advice {
    /// The region will be read front-to-back once (streaming ingest):
    /// aggressive readahead, pages dropped soon after use.
    Sequential,
    /// The region will be needed shortly (e.g. neighbor arrays right before
    /// an oriented build): start faulting pages in now.
    WillNeed,
}

/// A read-only, private memory mapping of an entire file.
///
/// The mapping lives until the last [`Arc<Mmap>`] clone is dropped, which is
/// what makes [`MappedSlice`] views lifetime-safe: each view holds a clone.
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

// The mapping is immutable (PROT_READ, MAP_PRIVATE) for its whole lifetime.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Whether memory mapping is implemented for this target at all.
    pub fn supported() -> bool {
        cfg!(all(unix, target_pointer_width = "64"))
    }

    /// Maps `len` bytes of `file` read-only. `len` must not exceed the file
    /// length (callers validate against metadata first — mapping past EOF
    /// risks SIGBUS on access, which validation here cannot catch).
    #[cfg(all(unix, target_pointer_width = "64"))]
    pub fn map(file: &File, len: usize) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            // mmap(len = 0) is EINVAL; represent the empty mapping directly.
            return Ok(Mmap {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
            });
        }
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: ptr as *const u8,
            len,
        })
    }

    /// Fallback for targets without an mmap implementation.
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    pub fn map(_file: &File, _len: usize) -> io::Result<Mmap> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "memory mapping is not supported on this target",
        ))
    }

    /// Opens and maps a whole file, returning the mapping and its length.
    pub fn map_path(path: &Path) -> io::Result<Arc<Mmap>> {
        let file = File::open(path)?;
        let meta_len = file.metadata()?.len();
        let len = usize::try_from(meta_len).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("file of {meta_len} bytes exceeds the address space"),
            )
        })?;
        Ok(Arc::new(Mmap::map(&file, len)?))
    }

    /// Total mapped length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Applies an access-pattern hint to a byte region of the mapping.
    /// Best-effort: out-of-range regions are clamped, syscall failures
    /// ignored (the hint only affects readahead, never correctness).
    pub fn advise_region(&self, advice: Advice, byte_offset: usize, byte_len: usize) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            let start = byte_offset.min(self.len);
            let len = byte_len.min(self.len - start);
            if len == 0 {
                return;
            }
            // madvise wants a page-aligned start; round down (hinting a few
            // extra bytes of the same page is harmless).
            let page = 4096usize;
            let addr = self.ptr as usize + start;
            let aligned = addr & !(page - 1);
            let len = len + (addr - aligned);
            let advice = match advice {
                Advice::Sequential => sys::MADV_SEQUENTIAL,
                Advice::WillNeed => sys::MADV_WILLNEED,
            };
            unsafe {
                sys::madvise(aligned as *mut std::ffi::c_void, len, advice);
            }
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            let _ = (advice, byte_offset, byte_len);
        }
    }

    /// [`Mmap::advise_region`] over the whole mapping.
    pub fn advise(&self, advice: Advice) {
        self.advise_region(advice, 0, self.len);
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if self.len > 0 {
            unsafe {
                sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
            }
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

/// A typed, bounds- and alignment-checked view of a region of an [`Mmap`].
///
/// Holds an `Arc` to the mapping, so the view is self-contained: it can be
/// stored in long-lived structs and cloned cheaply without lifetimes.
pub struct MappedSlice<T: Pod> {
    map: Arc<Mmap>,
    ptr: *const T,
    len: usize,
}

unsafe impl<T: Pod> Send for MappedSlice<T> {}
unsafe impl<T: Pod> Sync for MappedSlice<T> {}

impl<T: Pod> MappedSlice<T> {
    /// Creates a view of `len` elements of `T` starting `byte_offset` bytes
    /// into the mapping. Fails (without panicking) if the region extends
    /// past the mapping or is misaligned for `T`.
    pub fn new(map: Arc<Mmap>, byte_offset: usize, len: usize) -> Result<Self, String> {
        let elem = std::mem::size_of::<T>();
        let byte_len = len
            .checked_mul(elem)
            .ok_or_else(|| format!("mapped region of {len} x {elem} bytes overflows"))?;
        let end = byte_offset
            .checked_add(byte_len)
            .filter(|&e| e <= map.len())
            .ok_or_else(|| {
                format!(
                    "mapped region [{byte_offset}, +{byte_len}) exceeds file of {} bytes",
                    map.len()
                )
            })?;
        let _ = end;
        if len == 0 {
            return Ok(MappedSlice {
                map,
                ptr: std::ptr::NonNull::<T>::dangling().as_ptr(),
                len: 0,
            });
        }
        let ptr = unsafe { map.ptr.add(byte_offset) };
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(format!(
                "mapped region at byte offset {byte_offset} is misaligned for \
                 {}-byte elements",
                std::mem::align_of::<T>()
            ));
        }
        Ok(MappedSlice {
            map,
            ptr: ptr as *const T,
            len,
        })
    }

    /// The viewed elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// The mapping this view borrows from.
    #[inline]
    pub fn mapping(&self) -> &Arc<Mmap> {
        &self.map
    }

    /// Applies an access-pattern hint to exactly this view's region.
    pub fn advise(&self, advice: Advice) {
        if self.len == 0 {
            return;
        }
        let offset = self.ptr as usize - self.map.ptr as usize;
        self.map
            .advise_region(advice, offset, self.len * std::mem::size_of::<T>());
    }
}

impl<T: Pod> Clone for MappedSlice<T> {
    fn clone(&self) -> Self {
        MappedSlice {
            map: Arc::clone(&self.map),
            ptr: self.ptr,
            len: self.len,
        }
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for MappedSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MappedSlice({:?})", self.as_slice())
    }
}

/// A large array with a selectable storage backend: an owned `Vec<T>` or a
/// zero-copy view into a memory-mapped file.
///
/// Dereferences to `&[T]`, so all read paths are backend-agnostic. Equality
/// is content-based: an owned and a mapped buffer holding the same elements
/// compare equal (and so do the structs built from them — a mapped-backed
/// [`crate::CsrGraph`] equals its owned twin).
pub enum Buf<T: Pod> {
    /// Heap-allocated storage.
    Owned(Vec<T>),
    /// Zero-copy view into a memory-mapped file.
    Mapped(MappedSlice<T>),
}

impl<T: Pod> Buf<T> {
    /// The elements, whatever the backend.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Buf::Owned(v) => v.as_slice(),
            Buf::Mapped(m) => m.as_slice(),
        }
    }

    /// Whether this buffer is backed by a memory mapping.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self, Buf::Mapped(_))
    }

    /// The backend name, for diagnostics ("owned" / "mapped").
    pub fn backend_name(&self) -> &'static str {
        match self {
            Buf::Owned(_) => "owned",
            Buf::Mapped(_) => "mapped",
        }
    }

    /// Mutable access, converting a mapped buffer into an owned copy first
    /// (copy-on-write; mapped regions are immutable).
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let Buf::Mapped(m) = self {
            *self = Buf::Owned(m.as_slice().to_vec());
        }
        match self {
            Buf::Owned(v) => v,
            Buf::Mapped(_) => unreachable!(),
        }
    }

    /// Consumes the buffer into an owned `Vec`, copying if mapped.
    pub fn into_vec(self) -> Vec<T> {
        match self {
            Buf::Owned(v) => v,
            Buf::Mapped(m) => m.as_slice().to_vec(),
        }
    }

    /// Bytes of heap memory owned by this buffer (0 when mapped) — mapped
    /// pages are the kernel's, which is the whole point.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Buf::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
            Buf::Mapped(_) => 0,
        }
    }

    /// Applies an access-pattern hint. Only mapped buffers reach `madvise`;
    /// owned heap memory is already resident, so the hint is a no-op there.
    pub fn advise(&self, advice: Advice) {
        if let Buf::Mapped(m) = self {
            m.advise(advice);
        }
    }
}

impl<T: Pod> Deref for Buf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for Buf<T> {
    fn from(v: Vec<T>) -> Self {
        Buf::Owned(v)
    }
}

impl<T: Pod> From<MappedSlice<T>> for Buf<T> {
    fn from(m: MappedSlice<T>) -> Self {
        Buf::Mapped(m)
    }
}

impl<T: Pod> Default for Buf<T> {
    fn default() -> Self {
        Buf::Owned(Vec::new())
    }
}

impl<T: Pod> Clone for Buf<T> {
    fn clone(&self) -> Self {
        match self {
            Buf::Owned(v) => Buf::Owned(v.clone()),
            Buf::Mapped(m) => Buf::Mapped(m.clone()),
        }
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for Buf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Buf::{}({:?})", self.backend_name(), self.as_slice())
    }
}

impl<T: Pod + PartialEq> PartialEq for Buf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for Buf<T> {}

impl<T: Pod + PartialEq> PartialEq<Vec<T>> for Buf<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + PartialEq> PartialEq<Buf<T>> for Vec<T> {
    fn eq(&self, other: &Buf<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + PartialEq> PartialEq<&[T]> for Buf<T> {
    fn eq(&self, other: &&[T]) -> bool {
        self.as_slice() == *other
    }
}

impl<T: Pod + PartialEq, const N: usize> PartialEq<[T; N]> for Buf<T> {
    fn eq(&self, other: &[T; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod> FromIterator<T> for Buf<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Buf::Owned(iter.into_iter().collect())
    }
}

impl<'a, T: Pod> IntoIterator for &'a Buf<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(bytes: &[u8]) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "et-buf-test-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn owned_buf_derefs_and_compares() {
        let b: Buf<u32> = vec![1, 2, 3].into();
        assert_eq!(b.len(), 3);
        assert_eq!(b[1], 2);
        assert_eq!(b, vec![1, 2, 3]);
        assert!(!b.is_mapped());
        assert_eq!(b.backend_name(), "owned");
    }

    #[test]
    fn mapped_view_matches_file_contents() {
        if !Mmap::supported() {
            return;
        }
        let words: Vec<u32> = (0..64).map(|i| i * 7 + 1).collect();
        let mut bytes = Vec::new();
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let path = temp_file(&bytes);
        let map = Mmap::map_path(&path).unwrap();
        let view = MappedSlice::<u32>::new(Arc::clone(&map), 0, words.len()).unwrap();
        let buf: Buf<u32> = view.into();
        assert!(buf.is_mapped());
        assert_eq!(buf.heap_bytes(), 0);
        assert_eq!(buf, words);
        // Content-based equality across backends.
        let owned: Buf<u32> = words.clone().into();
        assert_eq!(buf, owned);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_view_rejects_out_of_bounds() {
        if !Mmap::supported() {
            return;
        }
        let path = temp_file(&[0u8; 16]);
        let map = Mmap::map_path(&path).unwrap();
        assert!(MappedSlice::<u32>::new(Arc::clone(&map), 0, 4).is_ok());
        assert!(MappedSlice::<u32>::new(Arc::clone(&map), 0, 5).is_err());
        assert!(MappedSlice::<u32>::new(Arc::clone(&map), 4, 4).is_err());
        assert!(MappedSlice::<u32>::new(Arc::clone(&map), usize::MAX, 1).is_err());
        assert!(MappedSlice::<u32>::new(Arc::clone(&map), 0, usize::MAX).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_view_rejects_misaligned_region() {
        if !Mmap::supported() {
            return;
        }
        let path = temp_file(&[0u8; 64]);
        let map = Mmap::map_path(&path).unwrap();
        // The mapping is page-aligned, so offset 2 is misaligned for u32 and
        // u64 but fine for u16.
        assert!(MappedSlice::<u32>::new(Arc::clone(&map), 2, 1).is_err());
        assert!(MappedSlice::<u64>::new(Arc::clone(&map), 4, 1).is_err());
        assert!(MappedSlice::<u16>::new(Arc::clone(&map), 2, 1).is_ok());
        assert!(MappedSlice::<u64>::new(Arc::clone(&map), 8, 1).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_views_are_fine() {
        if !Mmap::supported() {
            return;
        }
        let path = temp_file(&[]);
        let map = Mmap::map_path(&path).unwrap();
        assert!(map.is_empty());
        let view = MappedSlice::<u64>::new(Arc::clone(&map), 0, 0).unwrap();
        assert!(view.as_slice().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn to_mut_copies_out_of_the_mapping() {
        if !Mmap::supported() {
            return;
        }
        let path = temp_file(&42u32.to_le_bytes());
        let map = Mmap::map_path(&path).unwrap();
        let mut buf: Buf<u32> = MappedSlice::<u32>::new(Arc::clone(&map), 0, 1)
            .unwrap()
            .into();
        buf.to_mut()[0] = 7;
        assert!(!buf.is_mapped());
        assert_eq!(buf, vec![7]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backend_from_env_defaults_owned() {
        // Cannot safely set env vars in parallel tests; just check default.
        assert_eq!(Backend::default(), Backend::Owned);
        assert!(Backend::Mapped.is_mapped());
        assert_eq!(Backend::Mapped.to_string(), "mapped");
    }

    #[test]
    fn advise_is_safe_on_every_backend() {
        let owned: Buf<u32> = vec![1, 2, 3].into();
        owned.advise(Advice::Sequential);
        owned.advise(Advice::WillNeed);
        assert_eq!(owned, vec![1, 2, 3]);
        if !Mmap::supported() {
            return;
        }
        let words: Vec<u32> = (0..4096).collect();
        let mut bytes = Vec::new();
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let path = temp_file(&bytes);
        let map = Mmap::map_path(&path).unwrap();
        map.advise(Advice::Sequential);
        map.advise_region(Advice::WillNeed, 128, 1024);
        // Clamping: regions past EOF must not touch unmapped pages.
        map.advise_region(Advice::WillNeed, map.len() + 10, 50);
        map.advise_region(Advice::Sequential, 0, usize::MAX);
        let view = MappedSlice::<u32>::new(Arc::clone(&map), 64, 1000).unwrap();
        view.advise(Advice::WillNeed);
        let buf: Buf<u32> = view.into();
        buf.advise(Advice::Sequential);
        assert_eq!(buf.as_slice(), &words[16..1016]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn view_outlives_other_handles() {
        if !Mmap::supported() {
            return;
        }
        let words: Vec<u64> = vec![3, 1, 4, 1, 5];
        let mut bytes = Vec::new();
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let path = temp_file(&bytes);
        let buf: Buf<u64> = {
            let map = Mmap::map_path(&path).unwrap();
            let view = MappedSlice::<u64>::new(map, 0, words.len()).unwrap();
            view.into()
        };
        // The Arc inside the view keeps the mapping alive.
        std::fs::remove_file(&path).ok();
        assert_eq!(buf, words);
    }
}
