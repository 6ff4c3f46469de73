//! Model-based property test for the VFS: random file-system operation
//! sequences executed against the real OS must agree with a trivial
//! in-memory reference model — including across block-cache evictions and
//! disk round trips (the cache is deliberately tiny here to force them).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use osiris_kernel::abi::{Errno, Fd, OpenFlags, SeekFrom};
use osiris_rng::Rng;
use osiris_servers::{Os, OsConfig};
use osiris_workloads::{Host, ProgramRegistry, Sys};

const CASES: u64 = 40;

#[derive(Clone, Debug)]
enum FsOp {
    Open(u8),
    Close(u8),
    Write(u8, Vec<u8>),
    Read(u8, u16),
    SeekStart(u8, u16),
    Truncate(u8),
    Unlink(u8),
    StatSize(u8),
}

fn gen_op(r: &mut Rng) -> FsOp {
    match r.below(8) {
        0 => FsOp::Open(r.byte()),
        1 => FsOp::Close(r.byte()),
        2 => {
            let len = 1 + r.below_usize(2047);
            FsOp::Write(r.byte(), r.bytes(len))
        }
        3 => FsOp::Read(r.byte(), (r.next_u64() % 4096) as u16),
        4 => FsOp::SeekStart(r.byte(), (r.next_u64() % 8192) as u16),
        5 => FsOp::Truncate(r.byte()),
        6 => FsOp::Unlink(r.byte()),
        _ => FsOp::StatSize(r.byte()),
    }
}

fn pathname(p: u8) -> String {
    format!("/tmp/m{}", p % 4)
}

/// The reference model: files are byte vectors; descriptors are offsets.
#[derive(Default)]
struct Model {
    files: BTreeMap<String, Vec<u8>>,
    // fd slot -> (path, offset); mirrors the script's open-descriptor list.
    open: Vec<Option<(String, usize)>>,
}

impl Model {
    fn count_open(&self, path: &str) -> usize {
        self.open
            .iter()
            .flatten()
            .filter(|(p, _)| p == path)
            .count()
    }
}

/// Applies one op to the model, returning the expected trace line.
fn model_step(m: &mut Model, op: &FsOp) -> String {
    match op {
        FsOp::Open(p) => {
            let path = pathname(*p);
            // RDWR_CREATE semantics: create if missing, keep contents.
            m.files.entry(path.clone()).or_default();
            m.open.push(Some((path, 0)));
            format!("open {}", m.open.len() - 1)
        }
        FsOp::Close(i) => {
            let n = m.open.len().max(1);
            match m.open.get_mut(*i as usize % n) {
                Some(slot @ Some(_)) => {
                    *slot = None;
                    "close ok".into()
                }
                _ => "close none".into(),
            }
        }
        FsOp::Write(i, data) => {
            let n = m.open.len().max(1);
            match m.open.get_mut(*i as usize % n) {
                Some(Some((path, off))) => {
                    let file = m.files.get_mut(path).expect("open file exists");
                    let end = *off + data.len();
                    if file.len() < end {
                        file.resize(end, 0);
                    }
                    file[*off..end].copy_from_slice(data);
                    *off = end;
                    format!("write {}", data.len())
                }
                _ => "write none".into(),
            }
        }
        FsOp::Read(i, len) => {
            let n = m.open.len().max(1);
            match m.open.get_mut(*i as usize % n) {
                Some(Some((path, off))) => {
                    let file = &m.files[path];
                    let start = (*off).min(file.len());
                    let end = (*off + *len as usize).min(file.len());
                    let chunk = &file[start..end];
                    let fp = chunk.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
                    });
                    *off += chunk.len();
                    format!("read {} {:x}", chunk.len(), fp)
                }
                _ => "read none".into(),
            }
        }
        FsOp::SeekStart(i, o) => {
            let n = m.open.len().max(1);
            match m.open.get_mut(*i as usize % n) {
                Some(Some((_, off))) => {
                    *off = *o as usize;
                    format!("seek {}", o)
                }
                _ => "seek none".into(),
            }
        }
        FsOp::Truncate(p) => {
            // Modeled as open-with-truncate + close.
            let path = pathname(*p);
            if m.count_open(&path) > 0 {
                // The real VFS truncates regardless of other open handles;
                // offsets of other descriptors are preserved.
            }
            m.files.insert(path, Vec::new());
            "trunc ok".into()
        }
        FsOp::Unlink(p) => {
            let path = pathname(*p);
            if !m.files.contains_key(&path) {
                "unlink enoent".into()
            } else if m.count_open(&path) > 0 {
                "unlink busy".into()
            } else {
                m.files.remove(&path);
                "unlink ok".into()
            }
        }
        FsOp::StatSize(p) => {
            let path = pathname(*p);
            match m.files.get(&path) {
                Some(f) => format!("stat {}", f.len()),
                None => "stat enoent".into(),
            }
        }
    }
}

/// Applies one op to the real OS, returning the observed trace line.
fn real_step(sys: &mut Sys, fds: &mut Vec<Option<Fd>>, op: &FsOp) -> String {
    match op {
        FsOp::Open(p) => {
            let fd = sys
                .open(&pathname(*p), OpenFlags::RDWR_CREATE)
                .expect("open");
            fds.push(Some(fd));
            format!("open {}", fds.len() - 1)
        }
        FsOp::Close(i) => {
            let n = fds.len().max(1);
            match fds.get_mut(*i as usize % n) {
                Some(slot @ Some(_)) => {
                    let fd = slot.take().expect("checked");
                    sys.close(fd).expect("close");
                    "close ok".into()
                }
                _ => "close none".into(),
            }
        }
        FsOp::Write(i, data) => {
            let n = fds.len().max(1);
            match fds.get(*i as usize % n) {
                Some(Some(fd)) => {
                    let written = sys.write(*fd, data).expect("write");
                    format!("write {}", written)
                }
                _ => "write none".into(),
            }
        }
        FsOp::Read(i, len) => {
            let n = fds.len().max(1);
            match fds.get(*i as usize % n) {
                Some(Some(fd)) => {
                    let d = sys.read(*fd, u32::from(*len)).expect("read");
                    let fp = d.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
                    });
                    format!("read {} {:x}", d.len(), fp)
                }
                _ => "read none".into(),
            }
        }
        FsOp::SeekStart(i, o) => {
            let n = fds.len().max(1);
            match fds.get(*i as usize % n) {
                Some(Some(fd)) => {
                    sys.seek(*fd, SeekFrom::Start(u64::from(*o))).expect("seek");
                    format!("seek {}", o)
                }
                _ => "seek none".into(),
            }
        }
        FsOp::Truncate(p) => {
            let fd = sys
                .open(&pathname(*p), OpenFlags::CREATE)
                .expect("trunc-open");
            sys.close(fd).expect("trunc-close");
            "trunc ok".into()
        }
        FsOp::Unlink(p) => match sys.unlink(&pathname(*p)) {
            Ok(()) => "unlink ok".into(),
            Err(Errno::ENOENT) => "unlink enoent".into(),
            Err(Errno::EBUSY) => "unlink busy".into(),
            Err(e) => format!("unlink !{e}"),
        },
        FsOp::StatSize(p) => match sys.stat(&pathname(*p)) {
            Ok(st) => format!("stat {}", st.size),
            Err(Errno::ENOENT) => "stat enoent".into(),
            Err(e) => format!("stat !{e}"),
        },
    }
}

#[test]
fn vfs_matches_reference_model() {
    osiris_kernel::install_quiet_panic_hook();
    for case in 0..CASES {
        let mut r = Rng::new(0xF5F5_0001 ^ case);
        let n = 1 + r.below_usize(49);
        let ops: Vec<FsOp> = (0..n).map(|_| gen_op(&mut r)).collect();

        // Expected trace, from the model.
        let mut model = Model::default();
        let expected: Vec<String> = ops.iter().map(|op| model_step(&mut model, op)).collect();

        // Observed trace, from the real OS with a tiny 8-block cache so
        // evictions and disk traffic are constant.
        let observed = Arc::new(Mutex::new(Vec::new()));
        let shared = Arc::clone(&observed);
        let script = ops.clone();
        let mut registry = ProgramRegistry::new();
        registry.register("fsprop", move |sys| {
            let mut fds = Vec::new();
            for op in &script {
                let line = real_step(sys, &mut fds, op);
                shared.lock().unwrap().push(line);
            }
            0
        });
        let os = Os::new(OsConfig {
            vm_frames: 512,
            vfs_cache_blocks: 8,
            ..Default::default()
        });
        let mut host = Host::new(os, registry);
        let outcome = host.run("fsprop", &[]);
        assert!(outcome.completed(), "case seed {case}: {outcome:?}");
        let got = observed.lock().unwrap().clone();
        assert_eq!(got, expected, "case seed {case}");
    }
}
