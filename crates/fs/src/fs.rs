//! The file system proper: paths, inodes, extents, data I/O.
//!
//! Design notes:
//!
//! * **In-place updates**: overwriting never relocates blocks, so an
//!   extent mapping obtained via [`FileSystem::fiemap`] stays valid across
//!   overwrites — the property the Solros P2P path depends on (§5).
//! * **Write-through**: the buffer cache is updated alongside the device,
//!   so P2P reads (which bypass the cache) are coherent with buffered
//!   writes.
//! * **Locking**: metadata and data I/O serialize on one mutex, which
//!   is what lets a buffered read or write work from the *borrowed*
//!   inode — its size and extent list are never copied out.
//! * **One copy per page**: buffered data moves between the caller and
//!   the cache page directly ([`FileSystem::read_with`],
//!   [`FileSystem::write_with`]); a miss is read into, and a write
//!   written out of, the cache slot the page occupies.

use std::borrow::Cow;
use std::sync::Arc;

use solros_nvme::{NvmeDevice, BLOCK_SIZE};
use solros_simkit::sync::Mutex;
use solros_simkit::{IntMap, IntSet};

use crate::alloc::Bitmap;
use crate::blockio::BlockIo;
use crate::cache::BufferCache;
use crate::error::FsError;
use crate::layout::{
    decode_dirents, encode_dirents, Dirent, Extent, Inode, InodeKind, Superblock, DIRECT_EXTENTS,
    EXTENTS_PER_BLOCK, EXTENT_SIZE, INODE_SIZE,
};

/// Inode number.
pub type Ino = u64;

/// File metadata returned by [`FileSystem::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: Ino,
    /// True for directories.
    pub is_dir: bool,
    /// Size in bytes.
    pub size: u64,
}

/// Consistency summary returned by [`FileSystem::fsck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsckReport {
    /// Reachable regular files.
    pub files: u64,
    /// Reachable directories (including the root).
    pub dirs: u64,
    /// Data blocks owned by reachable inodes (incl. overflow blocks).
    pub data_blocks: u64,
    /// Free data blocks.
    pub free_blocks: u64,
    /// Blocks allocated beyond EOF (P2P preallocation; not an error).
    pub preallocated_blocks: u64,
}

/// Open flags (subset of POSIX plus the paper's `O_BUFFER`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenFlags {
    /// Create the file if missing.
    pub create: bool,
    /// Truncate to zero length on open.
    pub truncate: bool,
    /// Force buffered (host-staged) I/O even where P2P is possible — the
    /// paper's `O_BUFFER` extension (§4.3.2).
    pub buffered: bool,
}

struct FsInner {
    sb: Superblock,
    bitmap: Bitmap,
    inodes: IntMap<Ino, Inode>,
    dirty: IntSet<Ino>,
    used_inos: IntSet<Ino>,
}

/// What a hole reads as.
static ZERO_PAGE: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];

/// A data source for [`FileSystem::write_with`] that copies out of
/// `data`.
fn copy_from(data: &[u8]) -> impl FnMut(usize, &mut [u8]) + '_ {
    |at, piece| piece.copy_from_slice(&data[at..at + piece.len()])
}

/// The extent-based file system.
///
/// # Examples
///
/// ```
/// use solros_fs::FileSystem;
/// use solros_nvme::NvmeDevice;
///
/// let fs = FileSystem::mkfs(NvmeDevice::new(4096), 64).unwrap();
/// let ino = fs.create("/hello.txt").unwrap();
/// fs.write(ino, 0, b"hi there").unwrap();
/// let mut buf = [0u8; 8];
/// assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), 8);
/// assert_eq!(&buf, b"hi there");
/// ```
pub struct FileSystem {
    io: BlockIo,
    inner: Mutex<FsInner>,
    cache: BufferCache,
}

impl FileSystem {
    /// Formats the device and returns a mounted file system.
    pub fn mkfs(dev: Arc<NvmeDevice>, cache_pages: usize) -> Result<Self, FsError> {
        let io = BlockIo::new(dev);
        let sb = Superblock::for_device(io.capacity_blocks());
        let mut bitmap = Bitmap::new(sb.total_blocks);
        for b in 0..sb.data_start {
            bitmap.reserve(b);
        }
        let mut inner = FsInner {
            sb,
            bitmap,
            inodes: IntMap::default(),
            dirty: IntSet::default(),
            used_inos: IntSet::default(),
        };
        // Root directory.
        inner
            .inodes
            .insert(sb.root_ino, Inode::empty(InodeKind::Dir));
        inner.used_inos.insert(sb.root_ino);
        inner.dirty.insert(sb.root_ino);

        let fs = FileSystem {
            io,
            inner: Mutex::new(inner),
            cache: BufferCache::new(cache_pages),
        };
        // Persist the superblock and initial metadata.
        let mut block = vec![0u8; BLOCK_SIZE];
        fs.inner.lock().sb.encode(&mut block);
        fs.io.write_block(0, &block)?;
        fs.sync()?;
        Ok(fs)
    }

    /// Mounts an existing file system.
    pub fn mount(dev: Arc<NvmeDevice>, cache_pages: usize) -> Result<Self, FsError> {
        let io = BlockIo::new(dev);
        let mut block = vec![0u8; BLOCK_SIZE];
        io.read_block(0, &mut block)?;
        let sb = Superblock::decode(&block)?;
        // Bitmap.
        let mut bytes = Vec::with_capacity((sb.bitmap_blocks as usize) * BLOCK_SIZE);
        for i in 0..sb.bitmap_blocks {
            io.read_block(sb.bitmap_start + i, &mut block)?;
            bytes.extend_from_slice(&block);
        }
        let bitmap = Bitmap::from_bytes(&bytes, sb.total_blocks);
        // Scan the inode table for used slots.
        let per_block = BLOCK_SIZE / INODE_SIZE;
        let mut used_inos = IntSet::default();
        for bi in 0..sb.itable_blocks {
            io.read_block(sb.itable_start + bi, &mut block)?;
            for s in 0..per_block {
                let ino = bi * per_block as u64 + s as u64;
                if ino >= sb.inode_count {
                    break;
                }
                let raw = &block[s * INODE_SIZE..(s + 1) * INODE_SIZE];
                if Inode::decode(raw)?.kind != InodeKind::Free {
                    used_inos.insert(ino);
                }
            }
        }
        Ok(FileSystem {
            io,
            inner: Mutex::new(FsInner {
                sb,
                bitmap,
                inodes: IntMap::default(),
                dirty: IntSet::default(),
                used_inos,
            }),
            cache: BufferCache::new(cache_pages),
        })
    }

    /// Returns the shared buffer cache.
    pub fn cache(&self) -> &BufferCache {
        &self.cache
    }

    /// Returns the underlying device.
    pub fn device(&self) -> &Arc<NvmeDevice> {
        self.io.device()
    }

    /// Returns the number of free data blocks.
    pub fn free_blocks(&self) -> u64 {
        self.inner.lock().bitmap.free()
    }

    // ---- Inode table ----

    /// The cached inode, read from the table on first touch. Borrowed:
    /// a caller that only looks copies nothing.
    fn inode<'a>(&self, inner: &'a mut FsInner, ino: Ino) -> Result<&'a Inode, FsError> {
        use std::collections::hash_map::Entry;
        let FsInner { inodes, sb, .. } = inner;
        match inodes.entry(ino) {
            Entry::Occupied(cached) => Ok(cached.into_mut()),
            Entry::Vacant(slot) => {
                if ino >= sb.inode_count {
                    return Err(FsError::Corrupt);
                }
                let per_block = (BLOCK_SIZE / INODE_SIZE) as u64;
                let mut block = vec![0u8; BLOCK_SIZE];
                self.io
                    .read_block(sb.itable_start + ino / per_block, &mut block)?;
                let s = (ino % per_block) as usize;
                let inode = Inode::decode(&block[s * INODE_SIZE..(s + 1) * INODE_SIZE])?;
                Ok(slot.insert(inode))
            }
        }
    }

    /// A copy of the inode, for callers that go on to change it.
    fn load_inode(&self, inner: &mut FsInner, ino: Ino) -> Result<Inode, FsError> {
        self.inode(inner, ino).cloned()
    }

    fn store_inode(&self, inner: &mut FsInner, ino: Ino, inode: Inode) {
        inner.inodes.insert(ino, inode);
        inner.dirty.insert(ino);
    }

    fn alloc_ino(&self, inner: &mut FsInner) -> Result<Ino, FsError> {
        for ino in 0..inner.sb.inode_count {
            if !inner.used_inos.contains(&ino) {
                inner.used_inos.insert(ino);
                return Ok(ino);
            }
        }
        Err(FsError::NoSpace)
    }

    // ---- Extents ----

    /// Calls `f` on every extent of `inode` in file order (direct, then
    /// overflow).
    fn for_each_extent(&self, inode: &Inode, mut f: impl FnMut(Extent)) -> Result<(), FsError> {
        inode.extents.iter().copied().for_each(&mut f);
        if inode.overflow_block != 0 {
            let mut block = vec![0u8; BLOCK_SIZE];
            self.io.read_block(inode.overflow_block, &mut block)?;
            for i in 0..inode.overflow_count as usize {
                f(Extent::decode(
                    &block[i * EXTENT_SIZE..(i + 1) * EXTENT_SIZE],
                ));
            }
        }
        Ok(())
    }

    /// The full ordered extent list of `inode`: its direct extents as
    /// they stand, unless an overflow block continues them.
    fn extents_of<'a>(&self, inode: &'a Inode) -> Result<Cow<'a, [Extent]>, FsError> {
        if inode.overflow_block == 0 {
            return Ok(Cow::Borrowed(&inode.extents));
        }
        let mut out = Vec::with_capacity(inode.extents.len() + inode.overflow_count as usize);
        self.for_each_extent(inode, |e| out.push(e))?;
        Ok(Cow::Owned(out))
    }

    /// An owned [`Self::extents_of`], for callers that go on to change
    /// the list.
    fn all_extents(&self, inner: &mut FsInner, ino: Ino) -> Result<Vec<Extent>, FsError> {
        Ok(self.extents_of(self.inode(inner, ino)?)?.into_owned())
    }

    /// Appends to `out` the disk runs backing file pages `[first, last)`
    /// of `inode`, merging neighbours.
    fn map_pages(
        &self,
        inode: &Inode,
        first: u64,
        last: u64,
        out: &mut Vec<Extent>,
    ) -> Result<(), FsError> {
        let mut cum = 0u64;
        self.for_each_extent(inode, |e| {
            let e_first = cum;
            cum += e.len as u64; // Exclusive page index.
            let lo = first.max(e_first);
            let hi = last.min(cum);
            if lo < hi {
                let start = e.start + (lo - e_first);
                let len = (hi - lo) as u32;
                match out.last_mut() {
                    Some(prev) if prev.start + prev.len as u64 == start => prev.len += len,
                    _ => out.push(Extent { start, len }),
                }
            }
        })
    }

    fn set_extents(
        &self,
        inner: &mut FsInner,
        ino: Ino,
        extents: Vec<Extent>,
    ) -> Result<(), FsError> {
        let mut inode = self.load_inode(inner, ino)?;
        if extents.len() <= DIRECT_EXTENTS {
            if inode.overflow_block != 0 {
                inner.bitmap.release(inode.overflow_block);
                inode.overflow_block = 0;
                inode.overflow_count = 0;
            }
            inode.extents = extents;
        } else {
            let overflow = &extents[DIRECT_EXTENTS..];
            if overflow.len() > EXTENTS_PER_BLOCK {
                return Err(FsError::TooLarge);
            }
            if inode.overflow_block == 0 {
                let (b, l) = inner.bitmap.alloc_run(1)?;
                debug_assert_eq!(l, 1);
                inode.overflow_block = b;
            }
            let mut block = vec![0u8; BLOCK_SIZE];
            for (i, e) in overflow.iter().enumerate() {
                e.encode(&mut block[i * EXTENT_SIZE..(i + 1) * EXTENT_SIZE]);
            }
            self.io.write_block(inode.overflow_block, &block)?;
            inode.overflow_count = overflow.len() as u32;
            inode.extents = extents[..DIRECT_EXTENTS].to_vec();
        }
        self.store_inode(inner, ino, inode);
        Ok(())
    }

    /// Maps a file page index to its disk block, if allocated.
    fn block_of_page(extents: &[Extent], page: u64) -> Option<u64> {
        let mut cum = 0u64;
        for e in extents {
            if page < cum + e.len as u64 {
                return Some(e.start + (page - cum));
            }
            cum += e.len as u64;
        }
        None
    }

    /// Ensures the file has at least `blocks` allocated, appending runs.
    fn ensure_blocks(&self, inner: &mut FsInner, ino: Ino, blocks: u64) -> Result<(), FsError> {
        let extents = self.extents_of(self.inode(inner, ino)?)?;
        let mut have: u64 = extents.iter().map(|e| e.len as u64).sum();
        if have >= blocks {
            return Ok(());
        }
        let mut extents = extents.into_owned();
        let zero = vec![0u8; BLOCK_SIZE];
        while have < blocks {
            let want = (blocks - have).min(u32::MAX as u64) as u32;
            let (start, len) = inner.bitmap.alloc_run(want)?;
            // Recycled blocks may hold a previous file's bytes; fresh
            // allocations must read as zeroes everywhere (gap pages, P2P
            // pre-allocation, partial tails).
            for b in start..start + len as u64 {
                self.io.write_block(b, &zero)?;
            }
            // Merge with the previous extent when contiguous.
            match extents.last_mut() {
                Some(last)
                    if last.start + last.len as u64 == start
                        && last.len.checked_add(len).is_some() =>
                {
                    last.len += len;
                }
                _ => extents.push(Extent { start, len }),
            }
            have += len as u64;
        }
        self.set_extents(inner, ino, extents)
    }

    // ---- Paths ----

    fn split_path(path: &str) -> Result<Vec<&str>, FsError> {
        if !path.starts_with('/') {
            return Err(FsError::InvalidPath);
        }
        let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        for c in &comps {
            if *c == "." || *c == ".." || c.len() > 255 {
                return Err(FsError::InvalidPath);
            }
        }
        Ok(comps)
    }

    fn read_dir_entries(&self, inner: &mut FsInner, ino: Ino) -> Result<Vec<Dirent>, FsError> {
        let inode = self.load_inode(inner, ino)?;
        if inode.kind != InodeKind::Dir {
            return Err(FsError::NotDir);
        }
        let data = self.read_raw(inner, ino, 0, inode.size as usize)?;
        decode_dirents(&data)
    }

    fn write_dir_entries(
        &self,
        inner: &mut FsInner,
        ino: Ino,
        entries: &[Dirent],
    ) -> Result<(), FsError> {
        let data = encode_dirents(entries);
        // Shrink-then-write keeps the dirent stream exact.
        self.truncate_locked(inner, ino, 0)?;
        self.write_raw(inner, ino, 0, data.len(), copy_from(&data))?;
        Ok(())
    }

    /// Resolves a path to `(parent_ino, name, Option<ino>)`; for the root
    /// itself returns `(root, "", Some(root))`.
    fn resolve(
        &self,
        inner: &mut FsInner,
        path: &str,
    ) -> Result<(Ino, String, Option<Ino>), FsError> {
        let comps = Self::split_path(path)?;
        let root = inner.sb.root_ino;
        if comps.is_empty() {
            return Ok((root, String::new(), Some(root)));
        }
        let mut dir = root;
        for c in &comps[..comps.len() - 1] {
            let entries = self.read_dir_entries(inner, dir)?;
            let next = entries
                .iter()
                .find(|e| e.name == *c)
                .ok_or(FsError::NotFound)?
                .ino;
            let inode = self.load_inode(inner, next)?;
            if inode.kind != InodeKind::Dir {
                return Err(FsError::NotDir);
            }
            dir = next;
        }
        let name = comps[comps.len() - 1].to_string();
        let entries = self.read_dir_entries(inner, dir)?;
        let found = entries.iter().find(|e| e.name == name).map(|e| e.ino);
        Ok((dir, name, found))
    }

    // ---- Public metadata operations ----

    /// Creates a regular file; fails if it exists.
    pub fn create(&self, path: &str) -> Result<Ino, FsError> {
        let mut inner = self.inner.lock();
        let (dir, name, found) = self.resolve(&mut inner, path)?;
        if name.is_empty() {
            return Err(FsError::InvalidPath);
        }
        if found.is_some() {
            return Err(FsError::Exists);
        }
        let ino = self.alloc_ino(&mut inner)?;
        self.store_inode(&mut inner, ino, Inode::empty(InodeKind::File));
        let mut entries = self.read_dir_entries(&mut inner, dir)?;
        entries.push(Dirent { ino, name });
        self.write_dir_entries(&mut inner, dir, &entries)?;
        Ok(ino)
    }

    /// Creates a directory; fails if it exists.
    pub fn mkdir(&self, path: &str) -> Result<Ino, FsError> {
        let mut inner = self.inner.lock();
        let (dir, name, found) = self.resolve(&mut inner, path)?;
        if name.is_empty() {
            return Err(FsError::InvalidPath);
        }
        if found.is_some() {
            return Err(FsError::Exists);
        }
        let ino = self.alloc_ino(&mut inner)?;
        self.store_inode(&mut inner, ino, Inode::empty(InodeKind::Dir));
        let mut entries = self.read_dir_entries(&mut inner, dir)?;
        entries.push(Dirent { ino, name });
        self.write_dir_entries(&mut inner, dir, &entries)?;
        Ok(ino)
    }

    /// Opens a file; honours [`OpenFlags::create`] and
    /// [`OpenFlags::truncate`].
    pub fn open(&self, path: &str, flags: OpenFlags) -> Result<Ino, FsError> {
        let ino = {
            let mut inner = self.inner.lock();
            match self.resolve(&mut inner, path)? {
                (_, _, Some(ino)) => {
                    let inode = self.load_inode(&mut inner, ino)?;
                    if inode.kind == InodeKind::Dir {
                        return Err(FsError::IsDir);
                    }
                    ino
                }
                (dir, name, None) if flags.create => {
                    let ino = self.alloc_ino(&mut inner)?;
                    self.store_inode(&mut inner, ino, Inode::empty(InodeKind::File));
                    let mut entries = self.read_dir_entries(&mut inner, dir)?;
                    entries.push(Dirent { ino, name });
                    self.write_dir_entries(&mut inner, dir, &entries)?;
                    ino
                }
                _ => return Err(FsError::NotFound),
            }
        };
        if flags.truncate {
            self.truncate(ino, 0)?;
        }
        Ok(ino)
    }

    /// Returns metadata for a path.
    pub fn stat(&self, path: &str) -> Result<Stat, FsError> {
        let mut inner = self.inner.lock();
        let (_, _, found) = self.resolve(&mut inner, path)?;
        let ino = found.ok_or(FsError::NotFound)?;
        let inode = self.load_inode(&mut inner, ino)?;
        Ok(Stat {
            ino,
            is_dir: inode.kind == InodeKind::Dir,
            size: inode.size,
        })
    }

    /// Returns metadata by inode.
    pub fn stat_ino(&self, ino: Ino) -> Result<Stat, FsError> {
        let mut inner = self.inner.lock();
        let inode = self.inode(&mut inner, ino)?;
        if inode.kind == InodeKind::Free {
            return Err(FsError::NotFound);
        }
        Ok(Stat {
            ino,
            is_dir: inode.kind == InodeKind::Dir,
            size: inode.size,
        })
    }

    /// Lists a directory's entry names, sorted.
    pub fn readdir(&self, path: &str) -> Result<Vec<String>, FsError> {
        let mut inner = self.inner.lock();
        let (_, _, found) = self.resolve(&mut inner, path)?;
        let ino = found.ok_or(FsError::NotFound)?;
        let mut names: Vec<String> = self
            .read_dir_entries(&mut inner, ino)?
            .into_iter()
            .map(|e| e.name)
            .collect();
        names.sort();
        Ok(names)
    }

    /// Removes a file (or an empty directory).
    pub fn unlink(&self, path: &str) -> Result<(), FsError> {
        let mut inner = self.inner.lock();
        let (dir, name, found) = self.resolve(&mut inner, path)?;
        let ino = found.ok_or(FsError::NotFound)?;
        if name.is_empty() {
            return Err(FsError::InvalidPath); // The root.
        }
        let inode = self.load_inode(&mut inner, ino)?;
        if inode.kind == InodeKind::Dir && inode.size > 0 {
            return Err(FsError::NotEmpty);
        }
        // Free data blocks and the overflow block.
        self.truncate_locked(&mut inner, ino, 0)?;
        self.store_inode(&mut inner, ino, Inode::empty(InodeKind::Free));
        inner.used_inos.remove(&ino);
        let entries: Vec<Dirent> = self
            .read_dir_entries(&mut inner, dir)?
            .into_iter()
            .filter(|e| e.name != name)
            .collect();
        self.write_dir_entries(&mut inner, dir, &entries)?;
        self.cache.invalidate_ino(ino);
        Ok(())
    }

    /// Renames a file or directory within the tree.
    pub fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        let mut inner = self.inner.lock();
        let (fdir, fname, ffound) = self.resolve(&mut inner, from)?;
        let ino = ffound.ok_or(FsError::NotFound)?;
        if fname.is_empty() {
            return Err(FsError::InvalidPath);
        }
        let (tdir, tname, tfound) = self.resolve(&mut inner, to)?;
        if tname.is_empty() {
            return Err(FsError::InvalidPath);
        }
        if tfound.is_some() {
            return Err(FsError::Exists);
        }
        let entries: Vec<Dirent> = self
            .read_dir_entries(&mut inner, fdir)?
            .into_iter()
            .filter(|e| e.name != fname)
            .collect();
        self.write_dir_entries(&mut inner, fdir, &entries)?;
        let mut entries = self.read_dir_entries(&mut inner, tdir)?;
        entries.push(Dirent { ino, name: tname });
        self.write_dir_entries(&mut inner, tdir, &entries)?;
        Ok(())
    }

    // ---- Data I/O ----

    /// Buffered read through the shared cache. Returns bytes read (short
    /// at EOF).
    pub fn read(&self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize, FsError> {
        self.read_with(ino, offset, buf.len(), |at, piece| {
            buf[at..at + piece.len()].copy_from_slice(piece)
        })
    }

    /// [`FileSystem::read`] without the buffer in between: each piece of
    /// `[offset, offset + len)` is lent to `sink(at, bytes)` — `at`
    /// counted from `offset` — straight out of its cache page, in file
    /// order. `sink` runs under the file-system and cache locks and
    /// should only copy.
    pub fn read_with(
        &self,
        ino: Ino,
        offset: u64,
        len: usize,
        sink: impl FnMut(usize, &[u8]),
    ) -> Result<usize, FsError> {
        let mut inner = self.inner.lock();
        let inode = self.inode(&mut inner, ino)?;
        if inode.kind == InodeKind::Dir {
            return Err(FsError::IsDir);
        }
        self.read_pages(ino, inode, offset, len, sink)
    }

    fn read_pages(
        &self,
        ino: Ino,
        inode: &Inode,
        offset: u64,
        len: usize,
        mut sink: impl FnMut(usize, &[u8]),
    ) -> Result<usize, FsError> {
        if offset >= inode.size {
            return Ok(0);
        }
        let want = (len as u64).min(inode.size - offset) as usize;
        let extents = self.extents_of(inode)?;
        let mut done = 0usize;
        let bs = BLOCK_SIZE as u64;
        while done < want {
            let pos = offset + done as u64;
            let page = pos / bs;
            let in_page = (pos % bs) as usize;
            let piece = in_page..in_page + (BLOCK_SIZE - in_page).min(want - done);
            let n = piece.len();
            let hit = self
                .cache
                .with_page(ino, page, |data| sink(done, &data[piece.clone()]));
            if hit.is_none() {
                match Self::block_of_page(&extents, page) {
                    // A miss is read into the cache slot it will occupy.
                    Some(lba) => self.cache.fill(ino, page, |data, resident| {
                        if !resident {
                            self.io.read_block_retry(lba, data, 2)?;
                        }
                        sink(done, &data[piece]);
                        Ok::<(), FsError>(())
                    })?,
                    // A hole (e.g. truncate grew the size without
                    // allocating): reads as zeroes.
                    None => sink(done, &ZERO_PAGE[piece]),
                }
            }
            done += n;
        }
        Ok(want)
    }

    /// Buffered write-through. Extends the file as needed; returns bytes
    /// written.
    pub fn write(&self, ino: Ino, offset: u64, data: &[u8]) -> Result<usize, FsError> {
        self.write_with(ino, offset, data.len(), copy_from(data))
    }

    /// [`FileSystem::write`] without the buffer in between:
    /// `source(at, bytes)` fills each piece of `[offset, offset + len)` —
    /// `at` counted from `offset` — straight into its cache page, in file
    /// order, and the page is written through from there. `source` runs
    /// under the file-system and cache locks and should only copy.
    pub fn write_with(
        &self,
        ino: Ino,
        offset: u64,
        len: usize,
        source: impl FnMut(usize, &mut [u8]),
    ) -> Result<usize, FsError> {
        let mut inner = self.inner.lock();
        self.write_raw(&mut inner, ino, offset, len, source)
    }

    fn write_raw(
        &self,
        inner: &mut FsInner,
        ino: Ino,
        offset: u64,
        len: usize,
        mut source: impl FnMut(usize, &mut [u8]),
    ) -> Result<usize, FsError> {
        let inode = self.inode(inner, ino)?;
        if inode.kind == InodeKind::Free {
            return Err(FsError::NotFound);
        }
        if len == 0 {
            // POSIX: a zero-length write changes nothing (no extension).
            return Ok(0);
        }
        let old_size = inode.size;
        let end = offset + len as u64;
        let bs = BLOCK_SIZE as u64;
        self.ensure_blocks(inner, ino, end.div_ceil(bs))?;
        let extents = self.extents_of(self.inode(inner, ino)?)?;
        let mut done = 0usize;
        while done < len {
            let pos = offset + done as u64;
            let page = pos / bs;
            let in_page = (pos % bs) as usize;
            let n = (BLOCK_SIZE - in_page).min(len - done);
            let lba = Self::block_of_page(&extents, page).ok_or(FsError::Corrupt)?;
            // The cache slot's own page is the write buffer: refreshed in
            // place, then written through from there.
            self.cache.fill(ino, page, |block, resident| {
                if n < BLOCK_SIZE {
                    // Read-modify-write a partial page (prefer the cache).
                    if !resident {
                        self.io.read_block_retry(lba, block, 2)?;
                    }
                    // Bytes past the file's previous size are undefined on
                    // disk (freshly allocated or recycled blocks): they
                    // must read as zeroes, so zero them before merging.
                    let valid = old_size.saturating_sub(page * bs).min(bs) as usize;
                    block[valid..].fill(0);
                }
                source(done, &mut block[in_page..in_page + n]);
                self.io.write_block(lba, block)
            })?;
            done += n;
        }
        if end > old_size {
            let mut inode = self.load_inode(inner, ino)?;
            inode.size = end;
            self.store_inode(inner, ino, inode);
        }
        Ok(len)
    }

    fn read_raw(
        &self,
        inner: &mut FsInner,
        ino: Ino,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, FsError> {
        let inode = self.inode(inner, ino)?;
        let mut buf = vec![0u8; len];
        let n = self.read_pages(ino, inode, offset, len, |at, piece| {
            buf[at..at + piece.len()].copy_from_slice(piece)
        })?;
        buf.truncate(n);
        Ok(buf)
    }

    /// Truncates a file to `size` (only shrinking frees blocks; growing
    /// just updates the size, with blocks allocated on write).
    pub fn truncate(&self, ino: Ino, size: u64) -> Result<(), FsError> {
        let mut inner = self.inner.lock();
        self.truncate_locked(&mut inner, ino, size)
    }

    fn truncate_locked(&self, inner: &mut FsInner, ino: Ino, size: u64) -> Result<(), FsError> {
        let inode = self.load_inode(inner, ino)?;
        if size >= inode.size && size != 0 {
            let mut inode = inode;
            inode.size = size;
            self.store_inode(inner, ino, inode);
            return Ok(());
        }
        let keep_blocks = size.div_ceil(BLOCK_SIZE as u64);
        let extents = self.all_extents(inner, ino)?;
        let mut kept = Vec::new();
        let mut cum = 0u64;
        for e in extents {
            if cum >= keep_blocks {
                for i in 0..e.len as u64 {
                    inner.bitmap.release(e.start + i);
                }
            } else if cum + e.len as u64 <= keep_blocks {
                kept.push(e);
            } else {
                let keep = (keep_blocks - cum) as u32;
                kept.push(Extent {
                    start: e.start,
                    len: keep,
                });
                for i in keep as u64..e.len as u64 {
                    inner.bitmap.release(e.start + i);
                }
            }
            cum += e.len as u64;
        }
        self.set_extents(inner, ino, kept.clone())?;
        let mut inode = self.load_inode(inner, ino)?;
        inode.size = size;
        self.store_inode(inner, ino, inode);
        // Drop stale cached pages beyond the new size.
        self.cache.invalidate_ino(ino);
        // Zero the partial tail of the last kept block so a later grow
        // (truncate up or write past EOF) reads zeroes, not stale bytes.
        let tail = (size % BLOCK_SIZE as u64) as usize;
        if tail != 0 {
            if let Some(lba) = Self::block_of_page(&kept, size / BLOCK_SIZE as u64) {
                let mut block = vec![0u8; BLOCK_SIZE];
                self.io.read_block_retry(lba, &mut block, 2)?;
                block[tail..].fill(0);
                self.io.write_block(lba, &block)?;
            }
        }
        Ok(())
    }

    /// Allocates backing blocks for `[offset, offset+len)` without writing
    /// data — the P2P *write* path maps extents first and lets the NVMe
    /// DMA engine fill them (§5).
    pub fn ensure_allocated(&self, ino: Ino, offset: u64, len: u64) -> Result<(), FsError> {
        let mut inner = self.inner.lock();
        let inode = self.load_inode(&mut inner, ino)?;
        if inode.kind != InodeKind::File {
            return Err(FsError::IsDir);
        }
        let blocks = (offset + len).div_ceil(BLOCK_SIZE as u64);
        self.ensure_blocks(&mut inner, ino, blocks)
    }

    /// Grows the recorded size to at least `end` (P2P write completion
    /// path; the data already reached the device via DMA).
    pub fn extend_size(&self, ino: Ino, end: u64) -> Result<(), FsError> {
        let mut inner = self.inner.lock();
        let mut inode = self.load_inode(&mut inner, ino)?;
        if inode.kind != InodeKind::File {
            return Err(FsError::IsDir);
        }
        if end > inode.size {
            inode.size = end;
            self.store_inode(&mut inner, ino, inode);
        }
        Ok(())
    }

    /// Translates a byte range to disk extents — the `fiemap` the P2P path
    /// uses (§5). The returned runs are block-granular and cover
    /// `[offset, offset+len)` clamped to EOF.
    pub fn fiemap(&self, ino: Ino, offset: u64, len: u64) -> Result<Vec<Extent>, FsError> {
        let mut out = Vec::new();
        self.fiemap_into(ino, offset, len, &mut out)?;
        Ok(out)
    }

    /// [`FileSystem::fiemap`] writing the runs over `out`, for callers
    /// that map once per request and keep the vector.
    pub fn fiemap_into(
        &self,
        ino: Ino,
        offset: u64,
        len: u64,
        out: &mut Vec<Extent>,
    ) -> Result<(), FsError> {
        out.clear();
        let mut inner = self.inner.lock();
        let inode = self.inode(&mut inner, ino)?;
        if inode.kind != InodeKind::File {
            return Err(FsError::IsDir);
        }
        let end = (offset + len).min(inode.size);
        if offset >= end {
            return Ok(());
        }
        let bs = BLOCK_SIZE as u64;
        self.map_pages(inode, offset / bs, end.div_ceil(bs), out)
    }

    /// As [`FileSystem::fiemap`] but clamped to *allocated* blocks rather
    /// than the recorded size — the P2P write path maps freshly allocated
    /// extents before any data lands (§5).
    pub fn fiemap_allocated(
        &self,
        ino: Ino,
        offset: u64,
        len: u64,
    ) -> Result<Vec<Extent>, FsError> {
        let mut inner = self.inner.lock();
        let inode = self.inode(&mut inner, ino)?;
        if inode.kind != InodeKind::File {
            return Err(FsError::IsDir);
        }
        let bs = BLOCK_SIZE as u64;
        let mut out = Vec::new();
        self.map_pages(inode, offset / bs, (offset + len).div_ceil(bs), &mut out)?;
        Ok(out)
    }

    /// Returns the file size by inode.
    pub fn size_of(&self, ino: Ino) -> Result<u64, FsError> {
        Ok(self.stat_ino(ino)?.size)
    }

    /// Pre-resolves the extents backing an extent lease over
    /// `[offset, offset+len)`. Read leases map the blocks that exist
    /// (clamped to EOF, like [`Self::fiemap`]); write leases preallocate
    /// the whole range first so the mapping covers every block the
    /// holder may touch and — by the in-place-update invariant pinned in
    /// the module header — stays valid for the lease's lifetime.
    /// Returns the extents and the readable end of the range
    /// (`min(EOF, offset + len)`) at resolution time.
    pub fn resolve_lease_extents(
        &self,
        ino: Ino,
        offset: u64,
        len: u64,
        for_write: bool,
    ) -> Result<(Vec<Extent>, u64), FsError> {
        let extents = if for_write {
            self.ensure_allocated(ino, offset, len)?;
            self.fiemap_allocated(ino, offset, len)?
        } else {
            self.fiemap(ino, offset, len)?
        };
        let size = self.size_of(ino)?;
        Ok((extents, size.min(offset.saturating_add(len))))
    }

    /// Warms the shared cache with up to `pages` pages starting at the
    /// page containing `offset` — the host-side readahead the paper's
    /// proxy performs for sequentially accessed files (§4.3.2). Pages
    /// already resident, beyond EOF, or in holes are skipped. Returns the
    /// number of pages actually loaded.
    pub fn prefetch(&self, ino: Ino, offset: u64, pages: u64) -> Result<u64, FsError> {
        let mut inner = self.inner.lock();
        let inode = self.inode(&mut inner, ino)?;
        if inode.kind != InodeKind::File {
            return Err(FsError::IsDir);
        }
        let extents = self.extents_of(inode)?;
        let bs = BLOCK_SIZE as u64;
        let first = offset / bs;
        let last = inode.size.div_ceil(bs).min(first + pages);
        let mut loaded = 0;
        for page in first..last {
            if self.cache.peek(ino, page) {
                continue;
            }
            let Some(lba) = Self::block_of_page(&extents, page) else {
                continue; // Hole: reads as zeroes; nothing to warm.
            };
            self.cache.fill(ino, page, |block, resident| {
                if resident {
                    return Ok(());
                }
                self.io.read_block_retry(lba, block, 2)
            })?;
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Verifies on-disk/in-memory consistency: every reachable inode's
    /// extents lie in the data area, no two files share a block, every
    /// allocated data block is reachable (or is an overflow block), and
    /// every directory entry points at a live inode. Returns a summary.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Corrupt`] describing the first inconsistency.
    pub fn fsck(&self) -> Result<FsckReport, FsError> {
        let mut inner = self.inner.lock();
        let sb = inner.sb;
        // Walk the namespace from the root.
        let mut stack = vec![sb.root_ino];
        let mut seen_inos = IntSet::default();
        let mut owned_blocks: IntMap<u64, Ino> = IntMap::default();
        let mut files = 0u64;
        let mut dirs = 0u64;
        let mut preallocated = 0u64;
        while let Some(ino) = stack.pop() {
            if !seen_inos.insert(ino) {
                return Err(FsError::Corrupt); // A cycle or double link.
            }
            if !inner.used_inos.contains(&ino) {
                return Err(FsError::Corrupt); // Dirent to a free inode.
            }
            let inode = self.load_inode(&mut inner, ino)?;
            let extents = self.all_extents(&mut inner, ino)?;
            let mut mapped = 0u64;
            for e in &extents {
                for b in e.start..e.start + e.len as u64 {
                    if b < sb.data_start || b >= sb.total_blocks {
                        return Err(FsError::Corrupt); // Extent outside data.
                    }
                    if !inner.bitmap.is_set(b) {
                        return Err(FsError::Corrupt); // In use but free.
                    }
                    if owned_blocks.insert(b, ino).is_some() {
                        return Err(FsError::Corrupt); // Shared block.
                    }
                }
                mapped += e.len as u64;
            }
            if inode.overflow_block != 0 {
                if !inner.bitmap.is_set(inode.overflow_block) {
                    return Err(FsError::Corrupt);
                }
                if owned_blocks.insert(inode.overflow_block, ino).is_some() {
                    return Err(FsError::Corrupt);
                }
            }
            match inode.kind {
                InodeKind::Dir => {
                    dirs += 1;
                    for d in self.read_dir_entries(&mut inner, ino)? {
                        stack.push(d.ino);
                    }
                }
                InodeKind::File => {
                    files += 1;
                    // Holes (mapped < size pages) are legal; so are blocks
                    // beyond EOF: the P2P write path preallocates before
                    // the DMA lands and keeps the allocation if a device
                    // error aborts the transfer (like fallocate).
                    let max_needed = inode.size.div_ceil(BLOCK_SIZE as u64);
                    preallocated += mapped.saturating_sub(max_needed);
                }
                InodeKind::Free => return Err(FsError::Corrupt),
            }
        }
        // Every allocated data block must be owned by some reachable file.
        let mut leaked = 0u64;
        for b in sb.data_start..sb.total_blocks {
            if inner.bitmap.is_set(b) && !owned_blocks.contains_key(&b) {
                leaked += 1;
            }
        }
        if leaked > 0 {
            return Err(FsError::Corrupt);
        }
        // used_inos must equal the reachable set.
        if seen_inos.len() != inner.used_inos.len() {
            return Err(FsError::Corrupt);
        }
        Ok(FsckReport {
            files,
            dirs,
            data_blocks: owned_blocks.len() as u64,
            free_blocks: inner.bitmap.free(),
            preallocated_blocks: preallocated,
        })
    }

    /// Flushes dirty metadata (bitmap words, inodes, superblock).
    pub fn sync(&self) -> Result<(), FsError> {
        let mut inner = self.inner.lock();
        // Bitmap: rewrite blocks containing dirty words.
        let bytes = inner.bitmap.to_bytes();
        let dirty_words = inner.bitmap.take_dirty_words();
        let mut dirty_blocks: Vec<u64> = dirty_words
            .iter()
            .map(|w| (w * 8 / BLOCK_SIZE) as u64)
            .collect();
        dirty_blocks.sort_unstable();
        dirty_blocks.dedup();
        let mut block = vec![0u8; BLOCK_SIZE];
        for b in dirty_blocks {
            let off = (b as usize) * BLOCK_SIZE;
            block.fill(0);
            let end = (off + BLOCK_SIZE).min(bytes.len());
            if off < end {
                block[..end - off].copy_from_slice(&bytes[off..end]);
            }
            self.io.write_block(inner.sb.bitmap_start + b, &block)?;
        }
        // Inodes: group dirty inodes by table block.
        let per_block = (BLOCK_SIZE / INODE_SIZE) as u64;
        let mut dirty: Vec<Ino> = inner.dirty.drain().collect();
        dirty.sort_unstable();
        let mut by_block: IntMap<u64, Vec<Ino>> = IntMap::default();
        for ino in dirty {
            by_block.entry(ino / per_block).or_default().push(ino);
        }
        for (tb, inos) in by_block {
            let lba = inner.sb.itable_start + tb;
            self.io.read_block(lba, &mut block)?;
            for ino in inos {
                let inode = inner
                    .inodes
                    .get(&ino)
                    .cloned()
                    .unwrap_or_else(|| Inode::empty(InodeKind::Free));
                let s = (ino % per_block) as usize;
                inode.encode(&mut block[s * INODE_SIZE..(s + 1) * INODE_SIZE]);
            }
            self.io.write_block(lba, &block)?;
        }
        // Superblock last (ordering: metadata before the root pointer).
        let mut sb_block = vec![0u8; BLOCK_SIZE];
        inner.sb.encode(&mut sb_block);
        self.io.write_block(0, &sb_block)?;
        Ok(())
    }

    /// `fsync` for one inode: flush all metadata (the data path is
    /// write-through already).
    pub fn fsync(&self, _ino: Ino) -> Result<(), FsError> {
        self.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fs() -> FileSystem {
        FileSystem::mkfs(NvmeDevice::new(4096), 128).unwrap()
    }

    #[test]
    fn create_write_read() {
        let fs = small_fs();
        let ino = fs.create("/a.txt").unwrap();
        fs.write(ino, 0, b"hello").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
    }

    #[test]
    fn path_errors() {
        let fs = small_fs();
        assert_eq!(fs.create("relative"), Err(FsError::InvalidPath));
        assert_eq!(fs.create("/a/../b"), Err(FsError::InvalidPath));
        assert_eq!(
            fs.open("/missing", OpenFlags::default()),
            Err(FsError::NotFound)
        );
        fs.create("/x").unwrap();
        assert_eq!(fs.create("/x"), Err(FsError::Exists));
        assert_eq!(fs.stat("/nope").unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn directories_nest() {
        let fs = small_fs();
        fs.mkdir("/d").unwrap();
        fs.mkdir("/d/e").unwrap();
        let f = fs.create("/d/e/f.txt").unwrap();
        fs.write(f, 0, b"deep").unwrap();
        assert_eq!(fs.readdir("/").unwrap(), vec!["d"]);
        assert_eq!(fs.readdir("/d").unwrap(), vec!["e"]);
        assert_eq!(fs.readdir("/d/e").unwrap(), vec!["f.txt"]);
        let st = fs.stat("/d/e/f.txt").unwrap();
        assert!(!st.is_dir);
        assert_eq!(st.size, 4);
        assert!(fs.stat("/d").unwrap().is_dir);
    }

    #[test]
    fn open_create_truncate() {
        let fs = small_fs();
        let ino = fs
            .open(
                "/new",
                OpenFlags {
                    create: true,
                    ..Default::default()
                },
            )
            .unwrap();
        fs.write(ino, 0, b"0123456789").unwrap();
        let again = fs
            .open(
                "/new",
                OpenFlags {
                    truncate: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(again, ino);
        assert_eq!(fs.size_of(ino).unwrap(), 0);
    }

    #[test]
    fn cross_block_io() {
        let fs = small_fs();
        let ino = fs.create("/big").unwrap();
        let data: Vec<u8> = (0..3 * BLOCK_SIZE + 777).map(|i| (i % 251) as u8).collect();
        fs.write(ino, 0, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        assert_eq!(fs.read(ino, 0, &mut out).unwrap(), data.len());
        assert_eq!(out, data);
        // Unaligned mid-file read.
        let mut mid = vec![0u8; 5000];
        assert_eq!(fs.read(ino, 3000, &mut mid).unwrap(), 5000);
        assert_eq!(mid[..], data[3000..8000]);
    }

    #[test]
    fn overwrite_is_in_place() {
        let fs = small_fs();
        let ino = fs.create("/f").unwrap();
        fs.write(ino, 0, &vec![1u8; 2 * BLOCK_SIZE]).unwrap();
        let before = fs.fiemap(ino, 0, 2 * BLOCK_SIZE as u64).unwrap();
        fs.write(ino, 0, &vec![2u8; 2 * BLOCK_SIZE]).unwrap();
        let after = fs.fiemap(ino, 0, 2 * BLOCK_SIZE as u64).unwrap();
        assert_eq!(before, after, "overwrite relocated blocks");
    }

    #[test]
    fn sparse_gap_reads_zero() {
        let fs = small_fs();
        let ino = fs.create("/s").unwrap();
        fs.write(ino, 2 * BLOCK_SIZE as u64, b"tail").unwrap();
        let mut buf = vec![0xFFu8; BLOCK_SIZE];
        assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), BLOCK_SIZE);
        assert!(buf.iter().all(|&b| b == 0), "gap must read as zeroes");
    }

    #[test]
    fn unlink_frees_space() {
        let fs = small_fs();
        let free0 = fs.free_blocks();
        let ino = fs.create("/f").unwrap();
        fs.write(ino, 0, &vec![7u8; 10 * BLOCK_SIZE]).unwrap();
        assert!(fs.free_blocks() < free0);
        fs.unlink("/f").unwrap();
        assert_eq!(fs.free_blocks(), free0);
        assert_eq!(fs.stat("/f").unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn unlink_nonempty_dir_fails() {
        let fs = small_fs();
        fs.mkdir("/d").unwrap();
        fs.create("/d/f").unwrap();
        assert_eq!(fs.unlink("/d"), Err(FsError::NotEmpty));
        fs.unlink("/d/f").unwrap();
        fs.unlink("/d").unwrap();
        assert_eq!(fs.stat("/d").unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn rename_moves_entries() {
        let fs = small_fs();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/b").unwrap();
        let ino = fs.create("/a/f").unwrap();
        fs.write(ino, 0, b"data").unwrap();
        fs.rename("/a/f", "/b/g").unwrap();
        assert_eq!(fs.stat("/a/f").unwrap_err(), FsError::NotFound);
        let st = fs.stat("/b/g").unwrap();
        assert_eq!(st.ino, ino);
        assert_eq!(st.size, 4);
        assert_eq!(fs.rename("/b/g", "/b/g2").unwrap(), ());
        assert_eq!(fs.rename("/missing", "/x"), Err(FsError::NotFound));
    }

    #[test]
    fn fiemap_covers_requested_range() {
        let fs = small_fs();
        let ino = fs.create("/f").unwrap();
        fs.write(ino, 0, &vec![1u8; 8 * BLOCK_SIZE]).unwrap();
        let all = fs.fiemap(ino, 0, 8 * BLOCK_SIZE as u64).unwrap();
        let blocks: u64 = all.iter().map(|e| e.len as u64).sum();
        assert_eq!(blocks, 8);
        // A sub-range maps to exactly its pages.
        let sub = fs
            .fiemap(ino, BLOCK_SIZE as u64 + 100, BLOCK_SIZE as u64)
            .unwrap();
        let blocks: u64 = sub.iter().map(|e| e.len as u64).sum();
        assert_eq!(blocks, 2, "unaligned range touches two pages");
        // Beyond EOF clamps.
        assert!(fs
            .fiemap(ino, 9 * BLOCK_SIZE as u64, 4096)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn lease_resolution_preallocates_for_writes() {
        let fs = small_fs();
        let ino = fs.create("/lease").unwrap();
        fs.write(ino, 0, &vec![7u8; 2 * BLOCK_SIZE]).unwrap();
        let bs = BLOCK_SIZE as u64;

        // Read lease: clamped to EOF, readable end reported.
        let (ext, data_end) = fs.resolve_lease_extents(ino, 0, 8 * bs, false).unwrap();
        let blocks: u64 = ext.iter().map(|e| e.len as u64).sum();
        assert_eq!(blocks, 2, "read lease maps only existing blocks");
        assert_eq!(data_end, 2 * bs);

        // Write lease: the whole range is preallocated and mapped even
        // though the file is shorter.
        let (ext, data_end) = fs.resolve_lease_extents(ino, 0, 8 * bs, true).unwrap();
        let blocks: u64 = ext.iter().map(|e| e.len as u64).sum();
        assert_eq!(blocks, 8, "write lease preallocates the range");
        assert_eq!(data_end, 2 * bs, "readable end is still EOF");

        // The mapping stays valid across an in-place overwrite.
        let before = fs.resolve_lease_extents(ino, 0, 2 * bs, false).unwrap().0;
        fs.write(ino, 0, &vec![9u8; 2 * BLOCK_SIZE]).unwrap();
        let after = fs.resolve_lease_extents(ino, 0, 2 * bs, false).unwrap().0;
        assert_eq!(before, after, "in-place update keeps extents stable");
    }

    #[test]
    fn truncate_shrinks_and_frees() {
        let fs = small_fs();
        let ino = fs.create("/f").unwrap();
        // Measure after create: the dirent write may grow the root dir.
        let free0 = fs.free_blocks();
        fs.write(ino, 0, &vec![3u8; 6 * BLOCK_SIZE]).unwrap();
        fs.truncate(ino, BLOCK_SIZE as u64 + 10).unwrap();
        assert_eq!(fs.size_of(ino).unwrap(), BLOCK_SIZE as u64 + 10);
        assert_eq!(fs.free_blocks(), free0 - 2);
        let mut buf = vec![0u8; BLOCK_SIZE];
        let n = fs.read(ino, 0, &mut buf).unwrap();
        assert_eq!(n, BLOCK_SIZE);
        assert!(buf.iter().all(|&b| b == 3));
    }

    #[test]
    fn remount_preserves_everything() {
        let dev = NvmeDevice::new(8192);
        let data: Vec<u8> = (0..2 * BLOCK_SIZE + 17).map(|i| (i % 241) as u8).collect();
        let ino;
        {
            let fs = FileSystem::mkfs(Arc::clone(&dev), 64).unwrap();
            fs.mkdir("/docs").unwrap();
            ino = fs.create("/docs/report.txt").unwrap();
            fs.write(ino, 0, &data).unwrap();
            fs.sync().unwrap();
        }
        let fs = FileSystem::mount(dev, 64).unwrap();
        assert_eq!(fs.readdir("/").unwrap(), vec!["docs"]);
        let st = fs.stat("/docs/report.txt").unwrap();
        assert_eq!(st.ino, ino);
        assert_eq!(st.size, data.len() as u64);
        let mut out = vec![0u8; data.len()];
        fs.read(ino, 0, &mut out).unwrap();
        assert_eq!(out, data);
        // Free-space accounting survives the remount.
        let free = fs.free_blocks();
        fs.unlink("/docs/report.txt").unwrap();
        assert!(fs.free_blocks() > free);
    }

    #[test]
    fn large_file_uses_overflow_extents() {
        // Force fragmentation so extents cannot merge: allocate a file,
        // interleave with another file, repeatedly.
        let fs = FileSystem::mkfs(NvmeDevice::new(16384), 64).unwrap();
        let a = fs.create("/a").unwrap();
        let b = fs.create("/b").unwrap();
        let chunk = vec![9u8; BLOCK_SIZE];
        for i in 0..40u64 {
            fs.write(a, i * BLOCK_SIZE as u64, &chunk).unwrap();
            fs.write(b, i * BLOCK_SIZE as u64, &chunk).unwrap();
        }
        let map = fs.fiemap(a, 0, 40 * BLOCK_SIZE as u64).unwrap();
        assert!(
            map.len() > DIRECT_EXTENTS,
            "expected overflow extents, got {}",
            map.len()
        );
        // Content still correct everywhere.
        let mut out = vec![0u8; BLOCK_SIZE];
        for i in 0..40u64 {
            fs.read(a, i * BLOCK_SIZE as u64, &mut out).unwrap();
            assert!(out.iter().all(|&x| x == 9), "page {i}");
        }
    }

    #[test]
    fn cache_warms_on_reread() {
        let fs = small_fs();
        let ino = fs.create("/c").unwrap();
        fs.write(ino, 0, &vec![5u8; 4 * BLOCK_SIZE]).unwrap();
        let h0 = fs.cache().stats().hits;
        let mut buf = vec![0u8; 4 * BLOCK_SIZE];
        fs.read(ino, 0, &mut buf).unwrap();
        let h1 = fs.cache().stats().hits;
        assert!(h1 > h0, "write-through pages should be cache hits");
    }

    #[test]
    fn p2p_write_path_helpers() {
        let fs = small_fs();
        let ino = fs.create("/p2p").unwrap();
        // Allocate four blocks before any data exists.
        fs.ensure_allocated(ino, 0, 4 * BLOCK_SIZE as u64).unwrap();
        assert_eq!(fs.size_of(ino).unwrap(), 0, "allocation is not size");
        // The size-clamped fiemap sees nothing; the allocated one does.
        assert!(fs.fiemap(ino, 0, 4 * BLOCK_SIZE as u64).unwrap().is_empty());
        let map = fs.fiemap_allocated(ino, 0, 4 * BLOCK_SIZE as u64).unwrap();
        assert_eq!(map.iter().map(|e| e.len as u64).sum::<u64>(), 4);
        // After the "DMA" completes, the proxy extends the size.
        fs.extend_size(ino, 4 * BLOCK_SIZE as u64).unwrap();
        assert_eq!(fs.size_of(ino).unwrap(), 4 * BLOCK_SIZE as u64);
        // extend_size never shrinks.
        fs.extend_size(ino, 10).unwrap();
        assert_eq!(fs.size_of(ino).unwrap(), 4 * BLOCK_SIZE as u64);
    }

    #[test]
    fn prefetch_warms_cache_and_skips_holes() {
        let fs = small_fs();
        let ino = fs.create("/p").unwrap();
        fs.write(ino, 0, &vec![1u8; 4 * BLOCK_SIZE]).unwrap();
        // Hole pages at the tail (truncate-grow allocates nothing).
        fs.truncate(ino, 8 * BLOCK_SIZE as u64).unwrap();
        // Cold cache: prefetch the first 8 pages.
        fs.cache().invalidate_ino(ino);
        let loaded = fs.prefetch(ino, 0, 8).unwrap();
        assert_eq!(loaded, 4, "only allocated pages load; holes skip");
        // The warmed pages are now cache hits.
        let h0 = fs.cache().stats().hits;
        let mut buf = vec![0u8; 4 * BLOCK_SIZE];
        fs.read(ino, 0, &mut buf).unwrap();
        assert!(fs.cache().stats().hits >= h0 + 4);
        // Prefetch beyond EOF is a no-op.
        assert_eq!(fs.prefetch(ino, 100 * BLOCK_SIZE as u64, 4).unwrap(), 0);
        // Re-prefetching resident pages loads nothing.
        assert_eq!(fs.prefetch(ino, 0, 4).unwrap(), 0);
    }

    #[test]
    fn directories_span_multiple_blocks() {
        let fs = FileSystem::mkfs(NvmeDevice::new(16_384), 256).unwrap();
        // ~500 entries x ~18 bytes of dirent ≈ 9 KB: the dirent stream
        // spans three blocks.
        let n = 500;
        for i in 0..n {
            fs.create(&format!("/file-number-{i:04}")).unwrap();
        }
        let names = fs.readdir("/").unwrap();
        assert_eq!(names.len(), n);
        assert_eq!(names[0], "file-number-0000");
        assert_eq!(names[n - 1], format!("file-number-{:04}", n - 1));
        // Deletion from a multi-block directory keeps the rest intact.
        fs.unlink("/file-number-0250").unwrap();
        let names = fs.readdir("/").unwrap();
        assert_eq!(names.len(), n - 1);
        assert!(!names.contains(&"file-number-0250".to_string()));
        assert!(fs.stat("/file-number-0499").is_ok());
    }

    #[test]
    fn crash_before_sync_loses_only_unsynced_work() {
        let dev = NvmeDevice::new(8192);
        {
            let fs = FileSystem::mkfs(Arc::clone(&dev), 64).unwrap();
            let a = fs.create("/durable").unwrap();
            fs.write(a, 0, b"synced data").unwrap();
            fs.sync().unwrap();
            // Work after the last sync: may vanish on crash.
            let b = fs.create("/ephemeral").unwrap();
            fs.write(b, 0, b"not synced").unwrap();
            // "Crash": drop without sync.
        }
        let fs = FileSystem::mount(dev, 64).unwrap();
        // The synced file is fully intact.
        let st = fs.stat("/durable").unwrap();
        assert_eq!(st.size, 11);
        let mut buf = vec![0u8; 11];
        fs.read(st.ino, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"synced data");
        // The file system is consistent: we can keep allocating and the
        // free count is coherent with a full re-scan (mount rebuilt it).
        let c = fs.create("/after-crash").unwrap();
        fs.write(c, 0, &vec![5u8; 3 * BLOCK_SIZE]).unwrap();
        fs.sync().unwrap();
        let mut out = vec![0u8; 3 * BLOCK_SIZE];
        fs.read(c, 0, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 5));
    }

    #[test]
    fn fsck_clean_after_heavy_churn() {
        let fs = FileSystem::mkfs(NvmeDevice::new(8192), 128).unwrap();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        for i in 0..10 {
            let ino = fs.create(&format!("/a/b/f{i}")).unwrap();
            fs.write(ino, 0, &vec![i as u8; 3_000 * (i + 1)]).unwrap();
        }
        for i in (0..10).step_by(2) {
            fs.unlink(&format!("/a/b/f{i}")).unwrap();
        }
        // Truncates and sparse growth too.
        let ino = fs.stat("/a/b/f1").unwrap().ino;
        fs.truncate(ino, 100).unwrap();
        fs.truncate(ino, 50_000).unwrap();
        let r = fs.fsck().unwrap();
        assert_eq!(r.files, 5);
        assert_eq!(r.dirs, 3);
        assert!(r.data_blocks > 0);
    }

    #[test]
    fn fsck_detects_a_leaked_block() {
        let fs = FileSystem::mkfs(NvmeDevice::new(4096), 64).unwrap();
        let ino = fs.create("/f").unwrap();
        fs.write(ino, 0, &vec![1u8; 4 * BLOCK_SIZE]).unwrap();
        assert!(fs.fsck().is_ok());
        // Simulate corruption: allocate a block nobody owns.
        {
            let mut inner = fs.inner.lock();
            inner.bitmap.alloc_run(1).unwrap();
        }
        assert_eq!(fs.fsck().unwrap_err(), FsError::Corrupt);
    }

    #[test]
    fn no_space_surfaces() {
        let fs = FileSystem::mkfs(NvmeDevice::new(160), 16).unwrap();
        let ino = fs.create("/f").unwrap();
        let big = vec![0u8; 200 * BLOCK_SIZE];
        assert_eq!(fs.write(ino, 0, &big).unwrap_err(), FsError::NoSpace);
    }
}
