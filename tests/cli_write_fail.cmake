# A verb whose report cannot be written fails naming the path instead of
# printing "wrote" and exiting 0: /dev/full takes the open and refuses
# the bytes, a directory refuses the open.
set(targets "${WORK}")
if(EXISTS /dev/full)
  list(APPEND targets /dev/full)
endif()
foreach(out ${targets})
  execute_process(COMMAND ${MFC} ensemble --regression 1 --bench-reps 0
                          --chaos 0 --uq 0 -o ${out}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "mfc ensemble -o ${out} exited 0: ${stdout}")
  endif()
  if(NOT err MATCHES "${out}")
    message(FATAL_ERROR "mfc ensemble -o ${out} failed without naming it: ${err}")
  endif()
endforeach()
