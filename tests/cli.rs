//! End-to-end tests of the `mrinv` binary: generate a matrix file, invert
//! it, solve against it, and check the files the commands write.

use std::path::{Path, PathBuf};
use std::process::Command;

use mrinv_matrix::io::{decode_text, encode_text};
use mrinv_matrix::norms::inversion_residual;
use mrinv_matrix::random::random_matrix;
use mrinv_matrix::Matrix;

/// A fresh directory for one test's files, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mrinv-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `mrinv` with `args` and asserts it exits 0.
fn mrinv(dir: &ScratchDir, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_mrinv"))
        .args(args)
        .args(["--workdir", &dir.file("work")])
        .output()
        .expect("run mrinv");
    assert!(
        out.status.success(),
        "mrinv {args:?} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

fn read(path: impl AsRef<Path>) -> Matrix {
    decode_text(&std::fs::read_to_string(path).expect("read matrix file")).expect("decode")
}

#[test]
fn gen_then_invert_writes_an_accurate_inverse() {
    let dir = ScratchDir::new("invert");
    let (a, inv) = (dir.file("a.txt"), dir.file("inv.txt"));
    mrinv(
        &dir,
        &["gen", "--order", "48", "--seed", "7", "--output", &a],
    );
    mrinv(
        &dir,
        &[
            "invert", "--input", &a, "--output", &inv, "--nodes", "4", "--nb", "12",
        ],
    );
    let (a, inv) = (read(&a), read(&inv));
    assert_eq!(inv.shape(), (48, 48));
    let res = inversion_residual(&a, &inv).unwrap();
    assert!(res <= 1e-9, "residual {res}");
}

#[test]
fn solve_writes_solutions_with_a_small_residual() {
    let dir = ScratchDir::new("solve");
    let (a_path, b_path, x_path) = (dir.file("a.txt"), dir.file("b.txt"), dir.file("x.txt"));
    mrinv(
        &dir,
        &["gen", "--order", "40", "--seed", "3", "--output", &a_path],
    );
    // Each column of the right-hand-side file is one system.
    let b = random_matrix(40, 3, 9);
    std::fs::write(&b_path, encode_text(&b)).unwrap();
    mrinv(
        &dir,
        &[
            "solve", "--input", &a_path, "--rhs", &b_path, "--output", &x_path, "--nb", "10",
        ],
    );
    let (a, x) = (read(&a_path), read(&x_path));
    assert_eq!(x.shape(), (40, 3));
    let ax = &a * &x;
    let err = (&ax - &b).inf_norm();
    assert!(err <= 1e-9, "||Ax - b||_inf = {err}");
}
