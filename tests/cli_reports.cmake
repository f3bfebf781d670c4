# One paper-result report per REPORT: the mfc verb must exit 0 and print
# the numbers that pin its table or figure.
function(run_report)
  execute_process(COMMAND ${MFC} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    list(JOIN ARGN " " cmd)
    message(FATAL_ERROR "mfc ${cmd} exited ${rc}: ${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

function(expect text)
  string(FIND "${out}" "${text}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "mfc ${REPORT}: no '${text}' in:\n${out}")
  endif()
endfunction()

if(REPORT STREQUAL "devices")
  # Table 3: the model orders the 49 devices as the paper measured them.
  run_report(devices)
  expect("Kendall tau(model, paper) = 0.972")
elseif(REPORT STREQUAL "scale_weak")
  # Fig. 2 plots grindtime x ranks; the global grindtime alone shrinks
  # below the printed precision at scale.
  run_report(scale --system "LLNL El Capitan" --ranks 64,512,4096)
  expect("Grind x ranks")
  string(FIND "${out}" "0.0000" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "mfc scale printed 0.0000:\n${out}")
  endif()
elseif(REPORT STREQUAL "scale_strong")
  # Fig. 3: speedup next to the ideal.
  run_report(scale --system "OLCF Frontier" --strong --no-rdma --ranks 8,64)
  expect("Ideal")
elseif(REPORT STREQUAL "scale_table4")
  # Table 4: the first and last Frontier decompositions and grids.
  run_report(scale --system "OLCF Frontier"
             --ranks 128,384,1024,3072,8192,24576,65536)
  expect("4 x 4 x 8")
  expect("800 x 800 x 1600")
  expect("32 x 32 x 64")
  expect("6400 x 6400 x 12800")
else()
  message(FATAL_ERROR "unknown REPORT '${REPORT}'")
endif()
