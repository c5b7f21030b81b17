//! Quickstart: boot a Solros machine, exercise both delegated services.
//!
//! Run with `cargo run --example quickstart`.

use std::sync::Arc;
use std::time::Duration;

use solros::control::Solros;
use solros_machine::MachineConfig;
use solros_netdev::EndKind;

fn main() {
    // Boot the paper's testbed shape: 2 sockets, 4 Xeon Phis (two of them
    // across the QPI boundary from the SSD), NVMe, NIC.
    let sys = Solros::boot(MachineConfig::small());
    println!("booted Solros with {} co-processors", sys.coprocs());

    // --- File-system service (delegated to the host proxy) ---
    let fs = sys.data_plane(0).fs();
    fs.mkdir("/demo").unwrap();
    let f = fs.create("/demo/hello.txt").unwrap();
    let payload: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    fs.write_at(f, 0, &payload).unwrap();
    let back = fs.read_to_vec(f, 0, payload.len()).unwrap();
    assert_eq!(back, payload);
    println!(
        "fs: wrote+read {} KiB through the stub->proxy->NVMe path",
        payload.len() / 1024
    );
    let st = sys.fs_proxy_stats(0);
    println!(
        "fs proxy: {} RPCs, {} p2p reads, {} buffered reads, {} p2p writes, {} buffered writes",
        st.rpcs.load(std::sync::atomic::Ordering::Relaxed),
        st.p2p_reads.load(std::sync::atomic::Ordering::Relaxed),
        st.buffered_reads.load(std::sync::atomic::Ordering::Relaxed),
        st.p2p_writes.load(std::sync::atomic::Ordering::Relaxed),
        st.buffered_writes
            .load(std::sync::atomic::Ordering::Relaxed),
    );

    // --- Network service (TCP proxy + event ring) ---
    let net = sys.data_plane(0).net().clone();
    let listener = net.listen(8080, 64).unwrap();
    let fabric = Arc::clone(sys.network());
    let client = std::thread::spawn(move || {
        let conn = loop {
            if let Ok(c) = fabric.client_connect(8080, 99) {
                break c;
            }
            std::thread::yield_now();
        };
        fabric.send(conn, EndKind::Client, b"hello solros").unwrap();
        loop {
            let got = fabric.recv(conn, EndKind::Client, 64).unwrap();
            if !got.is_empty() {
                assert_eq!(got, b"HELLO SOLROS");
                break;
            }
            std::thread::yield_now();
        }
        fabric.close(conn, EndKind::Client).unwrap();
    });
    let (stream, peer) = listener
        .accept_timeout(Duration::from_secs(5))
        .expect("client connects");
    let mut buf = [0u8; 64];
    let n = stream.recv(&mut buf);
    let upper: Vec<u8> = buf[..n].iter().map(|b| b.to_ascii_uppercase()).collect();
    stream.send(&upper).unwrap();
    client.join().unwrap();
    println!("net: echoed {n} bytes to client {peer} through the shared TCP proxy");

    // PCIe accounting: what the transport actually moved.
    let snap = sys.machine().coprocs[0].counters.snapshot();
    println!(
        "pcie (coproc 0): {} line reads, {} line writes, {} DMA ops ({} bytes), {} ctrl reads",
        snap.read_lines, snap.write_lines, snap.dma_ops, snap.dma_bytes, snap.ctrl_reads
    );

    sys.shutdown();
    println!("clean shutdown");
}
