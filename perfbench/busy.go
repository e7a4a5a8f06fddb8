package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// On a VM whose virtual CPUs share host cores with other machines, a
// mostly idle process is noisy to time. A vCPU with nothing to run halts and
// the host gives its core away; a job that arrives then waits for the host
// to run the vCPU again. The Linux scheduler also keeps waking an idle
// process on the vCPU it last ran on, so a whole run can read one vCPU's
// share of the host: on the reference box every job of two probe runs out of
// three ran on one vCPU, and a vCPU's steal time ranged from 1% to 12% from
// one minute to the next. serve-mix, which leaves the CPUs idle most of the
// time, spread about three times as much without the spinners below as with
// them (README.md, "The box").
//
// startSpinners starts one spinner process per CPU, each running this
// binary with spinnerArg. A spinner runs at SCHED_IDLE: the kernel gives it
// a CPU only when nothing else wants one and takes it back the moment a
// normal thread wakes, so the vCPUs never halt and the program measured
// loses next to no CPU time to the spinners. The kernel also counts a CPU
// running only a spinner as idle when it places a waking thread, so jobs
// spread over every vCPU.
func startSpinners() (spinners, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("idle spinners: %w", err)
	}
	var s spinners
	for range runtime.NumCPU() {
		cmd, err := startSpinner(exe)
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("idle spinners: %w", err)
		}
		s = append(s, cmd)
	}
	return s, nil
}

// spinners are the running spinner processes.
type spinners []*exec.Cmd

// stop kills every spinner and waits for it to end.
func (s spinners) stop() {
	for _, cmd := range s {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

// startSpinner starts one spinner and returns once it runs at SCHED_IDLE.
func startSpinner(exe string) (*exec.Cmd, error) {
	cmd := exec.Command(exe, spinnerArg)
	cmd.Stderr = os.Stderr
	// A spinner also ends when this process does: the kernel kills it, and
	// its standard input reaches end of file.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if _, err := cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The spinner prints a line once it runs at SCHED_IDLE, and exits
	// without one if it cannot.
	if _, err := bufio.NewReader(out).ReadString('\n'); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, errors.New("a spinner could not switch to SCHED_IDLE")
	}
	return cmd, nil
}

// spinnerArg, as the only argument, makes the binary a spinner.
const spinnerArg = "--idle-spinner"

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// spin is a spinner's whole life: it moves every thread of its process to
// SCHED_IDLE, reports that on standard output, and burns CPU until its
// standard input closes.
func spin() error {
	runtime.GOMAXPROCS(1)
	var done atomic.Bool
	go func() {
		io.Copy(io.Discard, os.Stdin)
		done.Store(true)
	}()
	// Threads the runtime starts later inherit the policy of the thread
	// that starts them.
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	param := struct{ priority int32 }{}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			return fmt.Errorf("thread id %q: %w", t.Name(), err)
		}
		if _, _, e := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
			return fmt.Errorf("sched_setscheduler(%d, SCHED_IDLE): %w", tid, e)
		}
	}
	fmt.Println("idle")
	for !done.Load() {
	}
	return nil
}
