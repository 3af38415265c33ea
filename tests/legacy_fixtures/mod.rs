//! Stores as earlier releases left them: the retired structure formats,
//! from `cosbt-core`'s fixtures, and the layout of a sharded store before
//! shard 0 carried the database's root, when two side files beside the
//! shards held it.

#[path = "../../crates/core/tests/fixtures/legacy.rs"]
mod formats;

pub use formats::*;

use std::path::{Path, PathBuf};

use cosbt::cola::entry::Cell;
use cosbt::cola::persist::Root;
use cosbt::dam::format::sibling_path;
use cosbt::dam::{DirectFile, FileMem};

/// `fields` framed as a side file was: `magic`, the fields, and the
/// FNV-1a of both.
fn seal(magic: &[u8; 8], fields: &[u8]) -> Vec<u8> {
    let mut out = [&magic[..], fields].concat();
    out.extend_from_slice(&fnv1a(&out).to_le_bytes());
    out
}

/// The shard manifest (`<base>.manifest`, version 1) of a store with
/// `root`'s structure identity and routing.
pub fn manifest(root: &Root) -> Vec<u8> {
    let mut fields = [1, root.shards() as u32].map(u32::to_le_bytes).concat();
    fields.push(root.structure.0);
    fields.extend(root.structure.1.to_le_bytes());
    fields.extend((root.splitters.len() as u32).to_le_bytes());
    fields.extend(root.splitters.iter().flat_map(|s| s.to_le_bytes()));
    seal(b"COSBTMAN", &fields)
}

/// The cross-shard commit record (`<base>.commit`) of shards that
/// committed `epochs`.
pub fn commit_record(epochs: &[u64]) -> Vec<u8> {
    let mut fields = (epochs.len() as u32).to_le_bytes().to_vec();
    fields.extend(epochs.iter().flat_map(|e| e.to_le_bytes()));
    seal(b"COSBTCPT", &fields)
}

/// Turns the sharded COLA store at `base`, whose shard files are
/// `shards` (shard 0 first), into the layout of the release before
/// roots, as that release's `sync` left it: every shard commits its bare
/// structure meta, then the manifest and the commit record are written
/// beside the shards. Returns the root the side files now hold.
pub fn to_sidecar_layout(base: &Path, shards: &[PathBuf]) -> Root {
    let mut found = None;
    let mut epochs = Vec::new();
    for path in shards {
        let dev = DirectFile::open(path, false).unwrap();
        let (mut store, meta) = FileMem::<Cell, DirectFile>::open_on(dev, 4, 32).unwrap();
        let bare = match Root::split(&meta).unwrap() {
            Some((root, bare)) => {
                found = Some(root);
                bare.to_vec()
            }
            None => meta,
        };
        store.commit_meta(&bare).unwrap();
        epochs.push(store.pages().epoch());
    }
    let root = found.expect("shard 0 holds the root");
    std::fs::write(sibling_path(base, ".manifest"), manifest(&root)).unwrap();
    std::fs::write(sibling_path(base, ".commit"), commit_record(&epochs)).unwrap();
    root
}
