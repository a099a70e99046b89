"""Address-space and Flash-timing tests."""

import random
import tracemalloc

import pytest

from helpers import TimedFetchUnit, fetch
from m0energy import MalformedImageError, MemoryFault, MemorySystem
from m0energy.memory import DEBUG_ADDR, FLASH_BASE, RAM_BASE, fetch_stall


def make_mem(ram_size=8 * 1024):
    image = bytes(range(256)) * 4  # 1 KiB of recognizable bytes
    return MemorySystem(image, ram_size=ram_size)


def fetcher(ws=0, prefetch=False):
    """A memory and the timed fetch unit that `fetch` reads it through."""
    return make_mem(), TimedFetchUnit(ws, prefetch)


def test_image_too_short():
    with pytest.raises(MalformedImageError):
        MemorySystem(b"\x00" * 4)


def test_image_larger_than_flash():
    with pytest.raises(MalformedImageError):
        MemorySystem(bytes(1024), flash_size=512)


@pytest.mark.parametrize("flash_size,ram_size", [
    (0x0800_0004, 2), (64 * 1024, 0x2000_0002)], ids=["flash", "ram"])
def test_sizes_beyond_the_memory_map_are_refused(flash_size, ram_size):
    # each also breaks the multiple-of-4 rule, so that without the map
    # check the constructor still raises before it allocates memory
    with pytest.raises(MalformedImageError, match="memory map"):
        MemorySystem(bytes(1024), flash_size=flash_size, ram_size=ram_size)


def test_flash_is_built_in_one_buffer():
    flash_size = 16 * 1024 * 1024
    image = bytes(range(256)) * 4
    tracemalloc.start()
    try:
        mem = MemorySystem(image, flash_size=flash_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * flash_size
    assert len(mem.flash) == flash_size and isinstance(mem.flash, bytearray)
    assert mem.flash[:len(image)] == image
    assert mem.flash[len(image):] == b"\xff" * (flash_size - len(image))


def test_region_classification():
    mem = make_mem()
    assert mem.region(FLASH_BASE) == "flash"
    assert mem.region(FLASH_BASE + 64 * 1024 - 1) == "flash"
    assert mem.region(FLASH_BASE + 64 * 1024) is None
    assert mem.region(RAM_BASE) == "ram"
    assert mem.region(0x0000_0010) == "alias"
    assert mem.region(0x1000_0000) is None


def test_ram_read_after_write_word():
    mem = make_mem()
    assert mem.write(RAM_BASE, 4, 0xDEADBEEF) == "ram"
    assert mem.read(RAM_BASE, 4) == (0xDEADBEEF, "ram")


def test_ram_read_after_write_halfword():
    mem = make_mem()
    mem.write(0x2000_0004, 2, 0xBEEF)
    value, _ = mem.read(0x2000_0004, 2)
    assert value == 0xBEEF


def test_ram_boundary():
    mem = make_mem()
    mem.write(0x2000_1FFC, 4, 123)  # last word of 8 KiB RAM
    assert mem.read(0x2000_1FFC, 4)[0] == 123
    with pytest.raises(MemoryFault):
        mem.write(0x2000_2000, 4, 123)


def test_unmapped_read_faults():
    mem = make_mem()
    with pytest.raises(MemoryFault):
        mem.read(0x1000_0000, 4)


def test_write_to_flash_faults():
    mem = make_mem()
    with pytest.raises(MemoryFault) as err:
        mem.write(FLASH_BASE, 4, 0)
    assert err.value.kind == "write-to-flash"
    with pytest.raises(MemoryFault):
        mem.write(0x0000_0000, 4, 0)  # alias is flash too


def test_misaligned_data_access_faults():
    mem = make_mem()
    for size in (2, 4):
        with pytest.raises(MemoryFault):
            mem.read(RAM_BASE + 1, size)
        with pytest.raises(MemoryFault):
            mem.write(RAM_BASE + 1, size, 0)
    # byte accesses never fault on alignment
    mem.write(RAM_BASE + 1, 1, 0xAB)
    assert mem.read(RAM_BASE + 1, 1)[0] == 0xAB


def test_flash_data_read_returns_value_and_region():
    # the memory system has no timing: the simulator adds the data stall
    mem = make_mem()
    assert not hasattr(mem, "wait_states")
    assert mem.read(0x0800_0040, 4) == (
        int.from_bytes(bytes(range(0x40, 0x44)), "little"), "flash")


def test_alias_reads_mirror_flash_and_classify_as_flash():
    mem = make_mem()
    direct = mem.read(FLASH_BASE + 0x10, 4)
    aliased = mem.read(0x0000_0010, 4)
    assert direct == aliased
    assert aliased[1] == "flash"


def test_debug_port_captures_bytes():
    mem = make_mem()
    for b in b"Hi":
        assert mem.write(DEBUG_ADDR, 1, b) == "mmio"
    assert bytes(mem.debug_output) == b"Hi"
    with pytest.raises(MemoryFault):
        mem.write(DEBUG_ADDR, 4, 0)  # only byte writes are mapped
    with pytest.raises(MemoryFault):
        mem.read(DEBUG_ADDR, 1)  # write-only port


def test_ram_round_trip_random():
    mem = make_mem()
    rng = random.Random(20260811)
    for _ in range(2000):
        size = rng.choice([1, 2, 4])
        offset = rng.randrange(0, 8 * 1024 - size + 1)
        addr = RAM_BASE + (offset & ~(size - 1))
        value = rng.getrandbits(8 * size)
        mem.write(addr, size, value)
        assert mem.read(addr, size)[0] == value


# -- fetch timing ------------------------------------------------------------

def seq_fetch_stalls(mem, unit, addrs, start_now=0, base_cycles=1):
    """Fetch a straight-line address sequence, advancing time by the stall
    plus `base_cycles` per fetch; returns per-fetch stalls."""
    now = start_now
    stalls = []
    sequential = False  # first fetch after reset is non-sequential
    for addr in addrs:
        _, stall = fetch(mem, unit, addr, now, sequential)
        stalls.append(stall)
        now += stall + base_cycles
        sequential = True
    return stalls


def test_fetch_ws0_never_stalls():
    for prefetch in (False, True):
        mem, unit = fetcher(ws=0, prefetch=prefetch)
        addrs = [FLASH_BASE + 2 * i for i in range(12)]
        assert seq_fetch_stalls(mem, unit, addrs) == [0] * 12


def test_fetch_ws1_prefetch_off_sequential():
    # stall 1 on each new 32-bit word, 0 on the second halfword of a word
    mem, unit = fetcher(ws=1, prefetch=False)
    addrs = [FLASH_BASE + 2 * i for i in range(6)]
    assert seq_fetch_stalls(mem, unit, addrs) == [1, 0, 1, 0, 1, 0]
    # with prefetch disabled only the current word is ever held
    assert unit.next_word is None


def test_fetch_ws1_prefetch_on_sequential_hides_stalls():
    # after the initial miss, the read-ahead word is always ready in time
    mem, unit = fetcher(ws=1, prefetch=True)
    addrs = [FLASH_BASE + 2 * i for i in range(8)]
    assert seq_fetch_stalls(mem, unit, addrs) == [1, 0, 0, 0, 0, 0, 0, 0]


def test_fetch_ws1_prefetch_on_branch_target_stalls():
    # a non-sequential fetch flushes the buffer: the target word pays 1
    mem, unit = fetcher(ws=1, prefetch=True)
    _, stall = fetch(mem, unit, FLASH_BASE, 0, False)
    assert stall == 1
    # branch to 0x40 (not the read-ahead word): flush, stall 1
    _, stall = fetch(mem, unit, FLASH_BASE + 0x40, 5, False)
    assert stall == 1
    # even a branch into the prefetched word pays: buffer was flushed
    mem2, unit2 = fetcher(ws=1, prefetch=True)
    fetch(mem2, unit2, FLASH_BASE, 0, False)
    _, stall = fetch(mem2, unit2, FLASH_BASE + 4, 5, False)
    assert stall == 1


def test_fetch_ws1_prefetch_partial_fill_stalls_remainder():
    # land mid-word, execute one 1-cycle instruction, cross into the next
    # word before its background fill completes: pay the remainder (1)
    mem, unit = fetcher(ws=1, prefetch=True)
    _, s1 = fetch(mem, unit, FLASH_BASE + 6, 0, False)   # miss: stall 1
    assert s1 == 1
    # fill of 0x08 ready at 1 (fetch done) + 1 (ws) = 2; fetch at now=2 is fine
    _, s2 = fetch(mem, unit, FLASH_BASE + 8, 2, True)
    assert s2 == 0
    mem2, unit2 = fetcher(ws=1, prefetch=True)
    fetch(mem2, unit2, FLASH_BASE + 6, 0, False)
    # arriving one cycle early costs the remaining fill cycle... not possible
    # with 1-cycle minimum execution; arriving exactly at ready time is free
    _, s3 = fetch(mem2, unit2, FLASH_BASE + 8, 2, True)
    assert s3 == 0


@pytest.mark.parametrize("ws,prefetch", [(0, False), (0, True), (1, False),
                                         (1, True)])
def test_fetch_stall_matches_the_timed_fetch_unit(ws, prefetch):
    """The engine's clockless rule against the clocked buffer: over seeded
    runs of 2- and 4-byte instructions (a 4-byte one is a BL, straddling a
    word boundary when it starts at word offset 2), each taking at least a
    cycle, with random taken branches, `fetch_stall` of an instruction's
    words after the last word the previous one fetched (None after a taken
    branch) is the stall the TimedFetchUnit charges for its halfwords."""
    rng = random.Random(2 * ws + prefetch)
    for _ in range(300):
        unit = TimedFetchUnit(ws, prefetch)
        now, addr, held = rng.randrange(4), 2 * rng.randrange(16), None
        for _ in range(rng.randint(1, 12)):
            size = rng.choice([2, 2, 2, 4])
            words = [half & ~3 for half in range(addr, addr + size, 2)]
            if held is None:
                unit.flush()
            stall = 0
            for word in words:
                stall += unit.stall_for(word, now + stall)
            assert fetch_stall(words, held, ws, prefetch) == stall
            now += stall + rng.randint(1, 4)  # base cycles and data stalls
            if rng.randrange(4):
                addr, held = addr + size, words[-1]
            else:                             # a taken branch
                addr, held = 2 * rng.randrange(16), None


def test_fetch_from_ram_never_stalls():
    mem, unit = fetcher(ws=1, prefetch=False)
    mem.write(RAM_BASE, 2, 0x2001)
    value, stall = fetch(mem, unit, RAM_BASE, 0, False)
    assert (value, stall) == (0x2001, 0)


def test_fetch_unmapped_faults():
    mem = make_mem()
    with pytest.raises(MemoryFault):
        fetch(mem, TimedFetchUnit(0, False), 0xF000_0000, 0, False)


def test_reset_vector_parsing():
    image = (0x20002000).to_bytes(4, "little") + (0x08000101).to_bytes(4, "little")
    mem = MemorySystem(image)
    assert mem.reset_vector() == (0x20002000, 0x08000100)
    image = (0x20001000).to_bytes(4, "little") + (0x08000009).to_bytes(4, "little")
    assert MemorySystem(image).reset_vector() == (0x20001000, 0x08000008)


def test_reset_vector_outside_memory():
    from m0energy import BadEntryError
    image = (0x20002000).to_bytes(4, "little") + (0xF0000001).to_bytes(4, "little")
    with pytest.raises(BadEntryError):
        MemorySystem(image).reset_vector()
